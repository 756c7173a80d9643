package compare

import "parallaft/internal/mem"

// ExpectedPage is one page of a serialized reference state: its virtual
// page number and the XXH64 content hash recorded for it.
type ExpectedPage struct {
	VPN uint64
	Sum uint64
}

// RunAgainstHashes compares a live address space against a reference that
// exists only as per-page content hashes (a check packet's expected end
// state). It walks the union of both sides in ascending page order: a page
// present on one side only is a structural mismatch, a page whose hash
// differs is a content mismatch, and the first mismatching page is
// reported. expected must be sorted by VPN (packet end states are).
//
// Unlike Run, there is no dirty-set narrowing: the reference is already the
// complete mapped set, and the full-union walk yields the same verdict —
// pages untouched by the segment hash equal on both sides. When several
// pages mismatch at once, the reported page is the lowest-numbered one
// rather than the first in dirty-set insertion order; verdict kind and
// pass/fail are unaffected.
func RunAgainstHashes(expected []ExpectedPage, chk *mem.AddressSpace, seed uint64) *Mismatch {
	if matchesHashes(expected, chk, seed) {
		return nil
	}
	refs := chk.FrameRefs()
	i, j := 0, 0
	for i < len(expected) || j < len(refs) {
		switch {
		case j >= len(refs) || (i < len(expected) && expected[i].VPN < refs[j].VPN):
			return &Mismatch{Kind: MismatchStructural, VPN: expected[i].VPN}
		case i >= len(expected) || refs[j].VPN < expected[i].VPN:
			return &Mismatch{Kind: MismatchStructural, VPN: refs[j].VPN}
		default:
			if sum, _ := refs[j].Frame.ContentHash(seed); sum != expected[i].Sum {
				return &Mismatch{Kind: MismatchContent, VPN: expected[i].VPN}
			}
			i++
			j++
		}
	}
	return nil
}

// matchesHashes is the passing case without the sorted enumeration of chk:
// equal page counts plus every page of a strictly ascending expected list
// found with its hash leave no room for a page on one side only. Anything
// else is left to the union walk, which decides what to report.
func matchesHashes(expected []ExpectedPage, chk *mem.AddressSpace, seed uint64) bool {
	if len(expected) != chk.PageCount() {
		return false
	}
	for i, e := range expected {
		if i > 0 && e.VPN <= expected[i-1].VPN {
			return false
		}
		f := chk.FrameAt(e.VPN)
		if f == nil {
			return false
		}
		if sum, _ := f.ContentHash(seed); sum != e.Sum {
			return false
		}
	}
	return true
}
