package compose

import (
	"encoding/binary"
	"fmt"

	"rtcomp/internal/raster"
)

// Run is a run of identical (value, alpha) pixels at a pixel offset inside a
// block — the unit the RLE-family codecs produce. Off and N count pixels,
// not bytes.
type Run struct {
	Off, N int
	V, A   uint8
}

// OverU8Runs composites constant-pixel runs with dst in place and returns
// the number of pixels passed through the over operator (the summed run
// lengths). When runsFront is true each run acts as the front layer (run
// over dst); otherwise dst is the front and the runs are the back layer.
// Pixels of dst outside every run are untouched — which is what lets a
// fused decoder composite an encoded fragment without ever materializing
// the decoded scanlines: RLE's receive path walks the stream and feeds the
// runs straight here.
//
// Every run goes through OverU8 against a block of its pixel: a canonical
// blank (0, 0) back run against zeroBlock, any other run against a stack
// block filled with it, a chunk at a time. A blank front run keeps dst and
// costs nothing. Per-pixel results are therefore byte-identical to
// decoding the runs into a scratch block and calling OverU8.
func OverU8Runs(dst []uint8, runs []Run, runsFront bool) int {
	pixels := 0
	for _, r := range runs {
		if r.N < 0 || r.Off < 0 || (r.Off+r.N)*raster.BytesPerPixel > len(dst) {
			panic(fmt.Sprintf("compose: OverU8Runs run [%d,%d) outside %d-byte block",
				r.Off, r.Off+r.N, len(dst)))
		}
		seg := dst[r.Off*raster.BytesPerPixel : (r.Off+r.N)*raster.BytesPerPixel]
		switch {
		case runsFront && r.A == 0:
			// A blank front keeps the back, even a non-canonical blank.
		case r.V|r.A == 0:
			overChunks(seg, zeroBlock[:], false)
		default:
			var block [runBlock]uint8
			fill := block[:min(len(seg), len(block))]
			FillPixels(fill, r.V, r.A)
			overChunks(seg, fill, runsFront)
		}
		pixels += r.N
	}
	return pixels
}

// zeroBlock is the blank (0, 0) back layer of a canonical blank back run.
// Nothing writes it.
var zeroBlock [4096]uint8

// runBlock is the size of the stack block OverU8Runs fills with any other
// run's pixel.
const runBlock = 512

// overChunks composites the constant block run with dst in place, as the
// front layer when runFront is true and as the back otherwise, len(run)
// bytes at a time.
func overChunks(dst, run []uint8, runFront bool) {
	for len(dst) > 0 {
		n := min(len(dst), len(run))
		if runFront {
			OverU8(dst[:n], run[:n], dst[:n])
		} else {
			OverU8(dst[:n], dst[:n], run[:n])
		}
		dst = dst[n:]
	}
}

// pixelWord broadcasts one (value, alpha) pixel across a little-endian
// 64-bit word of four pixels.
func pixelWord(v, a uint8) uint64 {
	p := uint64(v) | uint64(a)<<8
	p |= p << 16
	return p | p<<32
}

// FillPixels stores the (v, a) pixel into every pixel of dst, eight bytes
// at a time. dst must have even length.
func FillPixels(dst []uint8, v, a uint8) {
	pat := pixelWord(v, a)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pat)
	}
	for ; i < len(dst); i += raster.BytesPerPixel {
		dst[i], dst[i+1] = v, a
	}
}
