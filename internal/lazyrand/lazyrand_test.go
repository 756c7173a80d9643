package lazyrand

import (
	"math/rand"
	"testing"
)

// A copy taken at any point continues math/rand's sequence exactly, and the
// original is not disturbed by the copy's draws.
func TestCopyContinuesTheSequence(t *testing.T) {
	want := rand.New(rand.NewSource(7))
	var ref []int64
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			ref = append(ref, int64(want.Intn(256)))
		case 1:
			ref = append(ref, want.Int63n(1<<30))
		default:
			ref = append(ref, int64(want.Uint64()>>1))
		}
	}
	draw := func(s *Stream, i int) int64 {
		switch i % 3 {
		case 0:
			return int64(s.Rand().Intn(256))
		case 1:
			return s.Rand().Int63n(1 << 30)
		default:
			return int64(s.Rand().Uint64() >> 1)
		}
	}
	s := New(7)
	for at := 0; at < len(ref); at += 37 {
		c := s.Copy()
		for i := at; i < len(ref); i++ {
			if got := draw(&c, i); got != ref[i] {
				t.Fatalf("copy taken at draw %d: draw %d = %d, want %d", at, i, got, ref[i])
			}
		}
		for i := at; i < at+37 && i < len(ref); i++ {
			if got := draw(&s, i); got != ref[i] {
				t.Fatalf("original after a copy: draw %d = %d, want %d", i, got, ref[i])
			}
		}
	}
	// A copy of a stream never drawn from starts at the seed.
	fresh := New(7)
	c := fresh.Copy()
	if got := draw(&c, 0); got != ref[0] {
		t.Fatalf("copy of an undrawn stream: %d, want %d", got, ref[0])
	}
}
