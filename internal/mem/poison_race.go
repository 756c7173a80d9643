//go:build race

package mem

// poisonReleased fills a frame with a poison pattern when it goes to the free
// list, so that under the race detector a read through a released address
// space sees garbage, not the bytes it expects, and every golden run with
// -race doubles as a use-after-release check.
const poisonReleased = true
