package compare

import "parallaft/internal/mem"

// The majority voter generalises the pairwise end-of-segment comparison to
// N-way modular redundancy (Elzar-style NMR): the N checker replicas plus
// the segment-end reference checkpoint form an (N+1)-voter electorate, and
// the segment verdict is whichever state a majority agrees on.
//
//   - Unanimous: every replica reproduces the reference — today's "ok".
//   - Absorb: the reference side still has a majority; the dissenting
//     replicas are outvoted and can be absorbed in place (a checker SEU
//     costs nothing but the replica).
//   - OutvoteRef: a majority of replicas agree with each other but not
//     with the reference — the *main* execution carried the fault, and the
//     agreed replica state is the correct segment-end state (forward
//     recovery copies it over the main instead of rolling back).
//   - NoQuorum: no state has a majority; the caller falls back to the
//     detection/rollback path.
//
// The voter only decides equality; what the caller does with the verdict
// (absorb, forward-repair, roll back) is policy above this package.

// Verdict is the outcome of one majority vote.
type Verdict int

const (
	// VerdictUnanimous: all N replicas agree with the reference.
	VerdictUnanimous Verdict = iota
	// VerdictAbsorb: the reference has a quorum; dissenters are outvoted.
	VerdictAbsorb
	// VerdictOutvoteRef: a replica quorum agrees against the reference.
	VerdictOutvoteRef
	// VerdictNoQuorum: no state reaches a majority.
	VerdictNoQuorum
)

func (v Verdict) String() string {
	switch v {
	case VerdictUnanimous:
		return "unanimous"
	case VerdictAbsorb:
		return "absorb"
	case VerdictOutvoteRef:
		return "outvote-ref"
	case VerdictNoQuorum:
		return "no-quorum"
	}
	return "unknown"
}

// VoteRequest describes one N-way vote. Register agreement is delegated to
// callbacks so the voter does not depend on the process model: the core
// runtime closes over its register files.
type VoteRequest struct {
	// Base is the segment-start snapshot (FrameDiff discovery only). Every
	// replica forked from it, which is what makes replica-vs-replica
	// discovery work in all modes: a replica's frame diff (or soft-dirty
	// set) against Base is exactly its write set.
	Base *mem.AddressSpace
	// Ref is the segment-end checkpoint: the reference state.
	Ref *mem.AddressSpace
	// Replicas holds each replica's address space, index-aligned with the
	// runtime's replica set. A nil entry is a replica that failed replay
	// before producing a comparable state; it votes as a dissenter.
	Replicas []*mem.AddressSpace

	// RegsAgreeRef reports whether replica i's registers (and PC) match the
	// reference's; RegsAgreePair the same between replicas i and j. Both
	// are only called for non-nil replicas; a nil callback means "agree".
	RegsAgreeRef  func(i int) bool
	RegsAgreePair func(i, j int) bool

	Discovery   Discovery
	CheckerMode mem.DirtyMode
	Seed        uint64
}

// VoteResult carries the verdict and the summed comparison books.
type VoteResult struct {
	Verdict Verdict
	// AgreedReplica is the lowest-index member of the winning replica
	// quorum under VerdictOutvoteRef; -1 otherwise.
	AgreedReplica int
	// Dissenters lists replica indices outside the winning state class,
	// ascending. Under NoQuorum it lists every replica that disagrees with
	// the reference.
	Dissenters []int

	// RefMismatch is the first reference-side mismatch found (the
	// lowest-index disagreeing replica's), for diagnostics; nil when every
	// compared replica matched the reference's memory.
	// RefMismatchReplica is the replica it came from (-1 when nil).
	RefMismatch        *Mismatch
	RefMismatchReplica int

	// Summed simulated/host books over every comparison the vote ran,
	// including replica-pairwise ones.
	DirtyPages    uint64
	HashedBytes   uint64
	IdentitySkips uint64
	CacheHits     uint64
}

// Voter runs majority votes, holding one Comparator arena per comparison
// slot so steady-state votes reuse scratch the way single-checker
// comparisons do. The zero value is ready to use; a Voter is not safe for
// concurrent use.
type Voter struct {
	cmps []Comparator

	// Per-vote scratch for the agreement bookkeeping.
	agreeRef  []bool
	classRep  []int // lowest-index representative of each pairwise class
	classSize []int
	member    []int // replica index -> class index (-1: none)
}

// comparator returns the i-th reusable arena, growing the pool on demand.
func (v *Voter) comparator(i int) *Comparator {
	for len(v.cmps) <= i {
		v.cmps = append(v.cmps, Comparator{})
	}
	return &v.cmps[i]
}

// Vote runs the (N+1)-voter majority decision. With a single live replica
// it degenerates to the pairwise comparison: agreement is Unanimous,
// disagreement NoQuorum — with summed books and RefMismatch bit-identical
// to Comparator.Run's on the same request. A steady-state one-replica vote
// does not allocate.
func (v *Voter) Vote(req VoteRequest) VoteResult {
	n := len(req.Replicas)
	res := VoteResult{
		AgreedReplica:      -1,
		RefMismatchReplica: -1,
	}
	voters := n + 1
	quorum := voters/2 + 1
	slot := 0
	account := func(cres *Result) {
		res.DirtyPages += cres.DirtyPages
		res.HashedBytes += cres.HashedBytes
		res.IdentitySkips += cres.IdentitySkips
		res.CacheHits += cres.CacheHits
	}
	run := func(ref, chk *mem.AddressSpace) Result {
		cres := v.comparator(slot).Run(Request{
			Base:        req.Base,
			Ref:         ref,
			Chk:         chk,
			Discovery:   req.Discovery,
			CheckerMode: req.CheckerMode,
			Seed:        req.Seed,
		})
		slot++
		account(&cres)
		return cres
	}

	// Phase 1: every live replica against the reference.
	if cap(v.agreeRef) < n {
		v.agreeRef = make([]bool, n)
	}
	agreeRef := v.agreeRef[:n]
	refAgreeing := 1 // the reference agrees with itself
	for i, as := range req.Replicas {
		agreeRef[i] = false
		if as == nil {
			continue
		}
		cres := run(req.Ref, as)
		regsOK := req.RegsAgreeRef == nil || req.RegsAgreeRef(i)
		if regsOK && cres.Mismatch == nil {
			agreeRef[i] = true
			refAgreeing++
		} else if res.RefMismatch == nil && cres.Mismatch != nil {
			res.RefMismatch = cres.Mismatch
			res.RefMismatchReplica = i
		}
	}

	if refAgreeing == voters {
		res.Verdict = VerdictUnanimous
		return res
	}
	if refAgreeing >= quorum {
		res.Verdict = VerdictAbsorb
		for i := range req.Replicas {
			if !agreeRef[i] {
				res.Dissenters = append(res.Dissenters, i)
			}
		}
		return res
	}

	// Phase 2: the reference lost its majority. Group the replicas that
	// disagree with it into pairwise-equal classes (state equality is an
	// equivalence relation, so one comparison against each class
	// representative decides membership) and look for a replica quorum.
	v.classRep = v.classRep[:0]
	v.classSize = v.classSize[:0]
	if cap(v.member) < n {
		v.member = make([]int, n)
	}
	member := v.member[:n]
	for i, as := range req.Replicas {
		member[i] = -1
		if as == nil || agreeRef[i] {
			continue // failed replicas never form a class; ref-agreeing ones lost with it
		}
		for ci, rep := range v.classRep {
			if req.RegsAgreePair != nil && !req.RegsAgreePair(rep, i) {
				continue
			}
			if cres := run(req.Replicas[rep], as); cres.Mismatch == nil {
				member[i] = ci
				break
			}
		}
		if member[i] < 0 {
			member[i] = len(v.classRep)
			v.classRep = append(v.classRep, i)
			v.classSize = append(v.classSize, 0)
		}
		v.classSize[member[i]]++
	}
	bestClass := -1
	for ci, size := range v.classSize {
		if size >= quorum && (bestClass < 0 || size > v.classSize[bestClass]) {
			bestClass = ci
		}
	}
	if bestClass < 0 {
		res.Verdict = VerdictNoQuorum
		for i := range req.Replicas {
			if !agreeRef[i] {
				res.Dissenters = append(res.Dissenters, i)
			}
		}
		return res
	}
	res.Verdict = VerdictOutvoteRef
	res.AgreedReplica = v.classRep[bestClass]
	for i := range req.Replicas {
		if member[i] != bestClass {
			res.Dissenters = append(res.Dissenters, i)
		}
	}
	return res
}
