//go:build race

package raster

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of what it is given, so byte-exact allocation
// budgets do not hold.
const raceEnabled = true
