//go:build !race

package cluster

// raceEnabled reports whether the race detector is active. Its
// instrumentation adds allocations of its own (and sync.Pool drops items
// at random under it), so allocation assertions only hold in non-race
// builds.
const raceEnabled = false
