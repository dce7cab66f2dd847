//go:build !race

package compose

const raceEnabled = false
