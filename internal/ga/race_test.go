//go:build race

package ga

// raceEnabled reports whether the race detector is active. Its
// instrumentation adds allocations of its own, so exact allocation counts
// only hold in non-race builds.
const raceEnabled = true
