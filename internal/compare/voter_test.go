package compare

import (
	"reflect"
	"testing"

	"parallaft/internal/mem"
)

// voteScenario builds the address-space cast of one segment, mirroring how
// the runtime produces them: a start checkpoint (Base), replicas forked
// from the start state with soft-dirty cleared, the main executing the
// segment's writes, an end checkpoint (Ref), and the replicas replaying
// the same writes. mutate, when set, perturbs the cast before the vote —
// the fault model.
type voteScenario struct {
	base *mem.AddressSpace
	ref  *mem.AddressSpace
	reps []*mem.AddressSpace
}

func buildVoteScenario(t *testing.T, n int, mutate func(s *voteScenario)) voteScenario {
	t.Helper()
	main := mem.NewAddressSpace(pg)
	mustMap(t, main, 0x10000, 4*pg)
	for i := uint64(0); i < 4; i++ {
		mustStore(t, main, 0x10000+i*pg, i+1)
	}
	s := voteScenario{base: main.Fork()}
	for i := 0; i < n; i++ {
		rep := main.Fork()
		rep.ClearSoftDirty()
		s.reps = append(s.reps, rep)
	}
	// The segment's writes: the main executes them, the replicas replay them.
	write := func(as *mem.AddressSpace) {
		mustStore(t, as, 0x10000, 100)
		mustStore(t, as, 0x10000+2*pg, 200)
	}
	write(main)
	s.ref = main.Fork() // end checkpoint
	for _, rep := range s.reps {
		write(rep)
	}
	if mutate != nil {
		mutate(&s)
	}
	return s
}

func (s *voteScenario) request() VoteRequest {
	return VoteRequest{
		Base:        s.base,
		Ref:         s.ref,
		Replicas:    s.reps,
		Discovery:   FrameDiff,
		CheckerMode: mem.DirtySoft,
		Seed:        seed,
	}
}

func TestVoteUnanimous(t *testing.T) {
	s := buildVoteScenario(t, 3, nil)
	var v Voter
	res := v.Vote(s.request())
	if res.Verdict != VerdictUnanimous {
		t.Fatalf("verdict = %v, want unanimous", res.Verdict)
	}
	if res.AgreedReplica != -1 || len(res.Dissenters) != 0 {
		t.Errorf("agreed=%d dissenters=%v, want -1/none", res.AgreedReplica, res.Dissenters)
	}
	if res.RefMismatch != nil {
		t.Errorf("unexpected ref mismatch: %+v", res.RefMismatch)
	}
	if res.DirtyPages == 0 || res.HashedBytes == 0 {
		t.Errorf("books empty: dirty=%d hashed=%d", res.DirtyPages, res.HashedBytes)
	}
}

// TestVoteAbsorbsDissenter: one replica of three diverges; the reference
// side keeps its 3-of-4 majority and the dissenter is outvoted.
func TestVoteAbsorbsDissenter(t *testing.T) {
	s := buildVoteScenario(t, 3, func(s *voteScenario) {
		mustStore(t, s.reps[1], 0x10000+2*pg, 999) // SEU in replica 1
	})
	var v Voter
	res := v.Vote(s.request())
	if res.Verdict != VerdictAbsorb {
		t.Fatalf("verdict = %v, want absorb", res.Verdict)
	}
	if !reflect.DeepEqual(res.Dissenters, []int{1}) {
		t.Errorf("dissenters = %v, want [1]", res.Dissenters)
	}
	if res.RefMismatch == nil || res.RefMismatchReplica != 1 {
		t.Errorf("ref mismatch = %+v from replica %d, want content mismatch from 1",
			res.RefMismatch, res.RefMismatchReplica)
	}
}

// TestVoteAbsorbsFailedReplica: a replica that failed replay (nil address
// space) is a dissenting voter; the reference majority absorbs it without
// comparing it.
func TestVoteAbsorbsFailedReplica(t *testing.T) {
	s := buildVoteScenario(t, 3, func(s *voteScenario) {
		s.reps[2] = nil
	})
	var v Voter
	res := v.Vote(s.request())
	if res.Verdict != VerdictAbsorb {
		t.Fatalf("verdict = %v, want absorb", res.Verdict)
	}
	if !reflect.DeepEqual(res.Dissenters, []int{2}) {
		t.Errorf("dissenters = %v, want [2]", res.Dissenters)
	}
	if res.RefMismatch != nil {
		t.Errorf("failed replica must not be compared, got mismatch %+v", res.RefMismatch)
	}
}

// TestVoteOutvotesReference: the main carried the fault — the end
// checkpoint disagrees with all three replicas, which agree pairwise. The
// replica quorum wins and names its lowest-index member the agreed state.
func TestVoteOutvotesReference(t *testing.T) {
	s := buildVoteScenario(t, 3, func(s *voteScenario) {
		mustStore(t, s.ref, 0x10000, 666) // fault in the main's end state
	})
	var v Voter
	res := v.Vote(s.request())
	if res.Verdict != VerdictOutvoteRef {
		t.Fatalf("verdict = %v, want outvote-ref", res.Verdict)
	}
	if res.AgreedReplica != 0 {
		t.Errorf("agreed replica = %d, want 0 (lowest index of the quorum)", res.AgreedReplica)
	}
	if len(res.Dissenters) != 0 {
		t.Errorf("dissenters = %v, want none (all replicas in the quorum)", res.Dissenters)
	}
}

// TestVoteNoQuorum: three-way divergence — the reference and one replica
// pair cannot reach the 3-of-4 quorum, so no state is trustworthy.
func TestVoteNoQuorum(t *testing.T) {
	s := buildVoteScenario(t, 3, func(s *voteScenario) {
		mustStore(t, s.ref, 0x10000, 666)          // main diverged...
		mustStore(t, s.reps[2], 0x10000+2*pg, 999) // ...and so did replica 2
	})
	var v Voter
	res := v.Vote(s.request())
	if res.Verdict != VerdictNoQuorum {
		t.Fatalf("verdict = %v, want no-quorum (replicas 0,1 are only 2 of 4 voters)", res.Verdict)
	}
	if res.AgreedReplica != -1 {
		t.Errorf("agreed replica = %d, want -1", res.AgreedReplica)
	}
	if !reflect.DeepEqual(res.Dissenters, []int{0, 1, 2}) {
		t.Errorf("dissenters = %v, want [0 1 2] (every replica disagrees with the reference)",
			res.Dissenters)
	}
}

// TestVoteRegisterCallbacks: register disagreement is part of the vote even
// when memory matches — a replica whose registers differ from the reference
// dissents, and a register split inside the replica camp blocks grouping.
func TestVoteRegisterCallbacks(t *testing.T) {
	s := buildVoteScenario(t, 3, nil)
	req := s.request()
	req.RegsAgreeRef = func(i int) bool { return i != 1 }
	var v Voter
	res := v.Vote(req)
	if res.Verdict != VerdictAbsorb || !reflect.DeepEqual(res.Dissenters, []int{1}) {
		t.Fatalf("verdict=%v dissenters=%v, want absorb of [1]", res.Verdict, res.Dissenters)
	}

	// Now the reference loses everyone on registers, and replica 2 also
	// splits from replicas 0 and 1 pairwise: a 2-of-4 camp is no quorum.
	req = s.request()
	req.RegsAgreeRef = func(int) bool { return false }
	req.RegsAgreePair = func(i, j int) bool { return i != 2 && j != 2 }
	res = v.Vote(req)
	if res.Verdict != VerdictNoQuorum {
		t.Fatalf("verdict = %v, want no-quorum", res.Verdict)
	}

	// With registers unanimous among replicas, the same memory state is a
	// 3-strong camp: the reference is outvoted.
	req = s.request()
	req.RegsAgreeRef = func(int) bool { return false }
	res = v.Vote(req)
	if res.Verdict != VerdictOutvoteRef || res.AgreedReplica != 0 {
		t.Fatalf("verdict=%v agreed=%d, want outvote-ref/0", res.Verdict, res.AgreedReplica)
	}
}

// TestVoteSingleReplicaDegeneratesToRun: with one replica the vote is the
// pairwise comparison — same verdict semantics, and summed books and
// mismatch bit-identical to Comparator.Run on the same request. The
// scenario is rebuilt from scratch for each side so the frames' hash memos
// start cold both times.
func TestVoteSingleReplicaDegeneratesToRun(t *testing.T) {
	for _, diverge := range []bool{false, true} {
		mutate := func(s *voteScenario) {}
		if diverge {
			mutate = func(s *voteScenario) { mustStore(t, s.reps[0], 0x10000, 31337) }
		}

		s1 := buildVoteScenario(t, 1, func(s *voteScenario) { mutate(s) })
		pairwise := Run(Request{
			Base:        s1.base,
			Ref:         s1.ref,
			Chk:         s1.reps[0],
			Discovery:   FrameDiff,
			CheckerMode: mem.DirtySoft,
			Seed:        seed,
		})

		s2 := buildVoteScenario(t, 1, func(s *voteScenario) { mutate(s) })
		var v Voter
		res := v.Vote(s2.request())

		want := VerdictUnanimous
		if diverge {
			want = VerdictNoQuorum
		}
		if res.Verdict != want {
			t.Fatalf("diverge=%v: verdict = %v, want %v", diverge, res.Verdict, want)
		}
		got := Result{DirtyPages: res.DirtyPages, HashedBytes: res.HashedBytes,
			IdentitySkips: res.IdentitySkips, CacheHits: res.CacheHits, Mismatch: res.RefMismatch}
		books := Result{DirtyPages: pairwise.DirtyPages, HashedBytes: pairwise.HashedBytes,
			IdentitySkips: pairwise.IdentitySkips, CacheHits: pairwise.CacheHits, Mismatch: pairwise.Mismatch}
		if !reflect.DeepEqual(got, books) {
			t.Errorf("diverge=%v: vote books differ from pairwise Run:\nvote: %+v\nrun:  %+v", diverge, got, books)
		}
	}
}

// TestVoterArenaReuse: consecutive votes on one Voter must not leak state
// between rounds (scratch slices are reused).
func TestVoterArenaReuse(t *testing.T) {
	var v Voter
	s := buildVoteScenario(t, 3, func(s *voteScenario) {
		mustStore(t, s.reps[1], 0x10000, 999)
	})
	first := v.Vote(s.request())
	if first.Verdict != VerdictAbsorb {
		t.Fatalf("first verdict = %v, want absorb", first.Verdict)
	}
	s2 := buildVoteScenario(t, 3, nil)
	second := v.Vote(s2.request())
	if second.Verdict != VerdictUnanimous {
		t.Fatalf("second verdict = %v, want unanimous (stale dissent state leaked?)", second.Verdict)
	}
	if len(second.Dissenters) != 0 || second.RefMismatch != nil {
		t.Errorf("second vote carries stale results: dissenters=%v mismatch=%+v",
			second.Dissenters, second.RefMismatch)
	}
}
