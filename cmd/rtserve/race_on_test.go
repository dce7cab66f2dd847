//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of what it is given, so allocation budgets do not
// hold.
const raceEnabled = true
