package compare

import (
	"testing"

	"parallaft/internal/mem"
)

const hashesTestSeed = 0x9a7a11af7

// snapshotHashes captures an address space as an expected-page list, the
// way the packet exporter records an end state.
func snapshotHashes(as *mem.AddressSpace) []ExpectedPage {
	refs := as.FrameRefs()
	out := make([]ExpectedPage, 0, len(refs))
	for _, fr := range refs {
		sum, _ := fr.Frame.ContentHash(hashesTestSeed)
		out = append(out, ExpectedPage{VPN: fr.VPN, Sum: sum})
	}
	return out
}

func newHashesTestAS(t *testing.T) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace(4096)
	if err := as.Map(0x10000, 4*4096, mem.ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if f := as.Write(0x10000+i*4096, []byte{byte(i + 1)}); f != nil {
			t.Fatal(f)
		}
	}
	return as
}

func TestRunAgainstHashesEqual(t *testing.T) {
	as := newHashesTestAS(t)
	expected := snapshotHashes(as)
	if m := RunAgainstHashes(expected, as, hashesTestSeed); m != nil {
		t.Fatalf("identical state reported mismatch %+v", m)
	}
}

func TestRunAgainstHashesContent(t *testing.T) {
	as := newHashesTestAS(t)
	expected := snapshotHashes(as)
	if f := as.Write(0x10000+2*4096, []byte{0xff}); f != nil {
		t.Fatal(f)
	}
	m := RunAgainstHashes(expected, as, hashesTestSeed)
	if m == nil || m.Kind != MismatchContent || m.VPN != (0x10000+2*4096)/4096 {
		t.Fatalf("mismatch = %+v, want content at page %#x", m, (0x10000+2*4096)/4096)
	}
}

func TestRunAgainstHashesStructural(t *testing.T) {
	as := newHashesTestAS(t)
	expected := snapshotHashes(as)

	// Checker mapped a page the reference never had.
	if err := as.Map(0x90000, 4096, mem.ProtRW, "stray"); err != nil {
		t.Fatal(err)
	}
	m := RunAgainstHashes(expected, as, hashesTestSeed)
	if m == nil || m.Kind != MismatchStructural || m.VPN != 0x90000/4096 {
		t.Fatalf("extra page: mismatch = %+v, want structural at %#x", m, 0x90000/4096)
	}
	if err := as.Unmap(0x90000, 4096); err != nil {
		t.Fatal(err)
	}

	// Reference expects a page the checker lost.
	if err := as.Unmap(0x10000, 4*4096); err != nil {
		t.Fatal(err)
	}
	m = RunAgainstHashes(expected, as, hashesTestSeed)
	if m == nil || m.Kind != MismatchStructural || m.VPN != 0x10000/4096 {
		t.Fatalf("missing page: mismatch = %+v, want structural at %#x", m, 0x10000/4096)
	}
}

func TestRunAgainstHashesReportsLowestVPN(t *testing.T) {
	as := newHashesTestAS(t)
	expected := snapshotHashes(as)
	// Dirty two pages; the lower-numbered one must be reported.
	if f := as.Write(0x10000+3*4096, []byte{0xaa}); f != nil {
		t.Fatal(f)
	}
	if f := as.Write(0x10000+1*4096, []byte{0xbb}); f != nil {
		t.Fatal(f)
	}
	m := RunAgainstHashes(expected, as, hashesTestSeed)
	if m == nil || m.VPN != (0x10000+1*4096)/4096 {
		t.Fatalf("mismatch = %+v, want lowest page %#x", m, (0x10000+1*4096)/4096)
	}
}

// TestRunAgainstHashesEqualCountsStillStructural: equal page counts must not
// let the passing-case shortcut accept a reference that differs as a set —
// one page swapped for another, or a page listed twice in place of a missing
// one — and the page reported stays the union walk's.
func TestRunAgainstHashesEqualCountsStillStructural(t *testing.T) {
	as := newHashesTestAS(t)
	expected := snapshotHashes(as)
	base := uint64(0x10000 / 4096)

	// Same count, different set: the checker lost page 0 and grew a stray
	// page above; page 0 is the lowest page on one side only.
	swapped := mem.NewAddressSpace(4096)
	if err := swapped.Map(0x10000+4096, 3*4096, mem.ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 4; i++ {
		if f := swapped.Write(0x10000+i*4096, []byte{byte(i + 1)}); f != nil {
			t.Fatal(f)
		}
	}
	if err := swapped.Map(0x90000, 4096, mem.ProtRW, "stray"); err != nil {
		t.Fatal(err)
	}
	if m := RunAgainstHashes(expected, swapped, hashesTestSeed); m == nil || m.Kind != MismatchStructural || m.VPN != base {
		t.Fatalf("swapped page: mismatch = %+v, want structural at %#x", m, base)
	}

	// A reference naming page 1 twice instead of page 2: every lookup finds
	// a matching page, but page 2 of the checker is in nobody's list.
	dup := append([]ExpectedPage(nil), expected...)
	dup[2] = dup[1]
	if m := RunAgainstHashes(dup, as, hashesTestSeed); m == nil || m.Kind != MismatchStructural {
		t.Fatalf("duplicated reference page: mismatch = %+v, want structural", m)
	}
}
