//go:build !amd64

package codec

// templateNibblesAVX2 is templateNibblesGo off amd64, where useAVX2 is
// never set.
func templateNibblesAVX2(bm, pix []uint8) { templateNibblesGo(bm, pix) }

// alphasNonZeroAVX2 is alphasNonZeroGo off amd64.
func alphasNonZeroAVX2(pix []uint8) bool { return alphasNonZeroGo(pix) }

// runStartsAVX2 is runStartsGo off amd64.
func runStartsAVX2(pix []uint8, chunks, limit int) (starts, last int) {
	return runStartsGo(pix, chunks, limit)
}
