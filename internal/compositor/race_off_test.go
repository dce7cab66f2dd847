//go:build !race

package compositor

const raceEnabled = false
