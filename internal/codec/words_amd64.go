package codec

// templateNibblesAVX2 writes the nibble bitmap of pix into bm exactly as
// templateNibblesGo does, 32 pixels per AVX2 pass (words_amd64.s); only
// call it when useAVX2 is set. len(pix) is a multiple of 64 bytes and bm
// holds len(pix)/16 bytes, every one of which it writes.
//
//go:noescape
func templateNibblesAVX2(bm, pix []uint8)

// alphasNonZeroAVX2 is alphasNonZeroGo sixteen pixels per AVX2 compare;
// only call it when useAVX2 is set. len(pix) is a multiple of 32 bytes.
//
//go:noescape
func alphasNonZeroAVX2(pix []uint8) bool

// runStartsAVX2 is runStartsGo sixteen pixels per AVX2 compare; only call
// it when useAVX2 is set. pix holds at least 16*chunks+1 pixels and limit
// is at least 0.
//
//go:noescape
func runStartsAVX2(pix []uint8, chunks, limit int) (starts, last int)
