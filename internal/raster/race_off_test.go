//go:build !race

package raster

const raceEnabled = false
