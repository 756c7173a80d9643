// Package lazyrand is the simulation's random stream, one per process (PMU
// noise) and per kernel (ASLR, getrandom): math/rand's sequence for a seed,
// seeded on the first draw — seeding costs more than a fork, and checkpoints
// never draw — and copyable mid-stream, so that a copied process draws on
// as its original would.
package lazyrand

import "math/rand"

// Stream is math/rand's sequence for one seed.
type Stream struct {
	seed  int64
	drawn uint64 // draws to replay when the generator is created
	src   *counter
	r     *rand.Rand
}

// counter counts the draws taken from a source: every math/rand method
// takes whole draws, one Int63 or Uint64 each.
type counter struct {
	rand.Source64
	n uint64
}

func (c *counter) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *counter) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// New returns the stream for seed.
func New(seed int64) Stream { return Stream{seed: seed} }

// Rand returns the stream's generator, creating it on first use.
func (s *Stream) Rand() *rand.Rand {
	if s.r == nil {
		s.src = &counter{Source64: rand.NewSource(s.seed).(rand.Source64), n: s.drawn}
		for i := uint64(0); i < s.drawn; i++ {
			s.src.Source64.Uint64()
		}
		s.r = rand.New(s.src)
	}
	return s.r
}

// Copy returns an independent stream whose next draw is the one s would
// make next: it re-seeds and replays s's draws when first drawn from. It
// only reads s.
func (s *Stream) Copy() Stream {
	n := s.drawn
	if s.src != nil {
		n = s.src.n
	}
	return Stream{seed: s.seed, drawn: n}
}
