//go:build !race

package mem

// poisonReleased is off outside race builds: a released frame keeps its
// bytes until Map clears it or a COW copy overwrites it.
const poisonReleased = false
