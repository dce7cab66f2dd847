package compose

import (
	"encoding/binary"
	"fmt"

	"rtcomp/internal/raster"
)

// Word-wide masks over four interleaved value+alpha pixels viewed as one
// little-endian uint64: alphaLanes selects the four alpha bytes, opaqueWord
// is what alphaLanes reads when all four pixels are fully opaque.
const (
	alphaLanes = uint64(0xFF00FF00FF00FF00)
	opaqueWord = alphaLanes
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
// Per-pixel results are byte-identical to decoding the runs into a scratch
// block and calling OverU8: they share the same short-circuits, and
// partial-alpha pixels go through OverBlend here and through blendWords,
// which equals it on every pixel, there.
func OverU8Runs(dst []uint8, runs []Run, runsFront bool) int {
	pixels := 0
	for _, r := range runs {
		if r.N < 0 || r.Off < 0 || (r.Off+r.N)*raster.BytesPerPixel > len(dst) {
			panic(fmt.Sprintf("compose: OverU8Runs run [%d,%d) outside %d-byte block",
				r.Off, r.Off+r.N, len(dst)))
		}
		seg := dst[r.Off*raster.BytesPerPixel : (r.Off+r.N)*raster.BytesPerPixel]
		if runsFront {
			overRunFront(seg, r.V, r.A)
		} else {
			overRunBack(seg, r.V, r.A)
		}
		pixels += r.N
	}
	return pixels
}

// overRunFront composites a constant front pixel over every pixel of dst.
func overRunFront(dst []uint8, v, a uint8) {
	switch a {
	case 0:
		// Blank front: the back (dst) wins everywhere, even when the run
		// carries a non-canonical value byte.
	case 255:
		FillPixels(dst, v, a)
	default:
		for i := 0; i+raster.BytesPerPixel <= len(dst); i += raster.BytesPerPixel {
			dst[i], dst[i+1] = OverBlend(v, a, dst[i], dst[i+1])
		}
	}
}

// overRunBack composites every pixel of dst (the front) over a constant
// back pixel, in place. Like OverU8 it classifies four front pixels per
// 64-bit load: an all-opaque word is untouched, an all-blank word becomes
// four copies of the back pixel, and mixed words take the per-pixel path.
func overRunBack(dst []uint8, v, a uint8) {
	if a == 0 {
		overBlankBack(dst, v)
		return
	}
	pat := pixelWord(v, a)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		fw := binary.LittleEndian.Uint64(dst[i:])
		switch fw & alphaLanes {
		case opaqueWord:
		case 0:
			binary.LittleEndian.PutUint64(dst[i:], pat)
		default:
			for k := i; k < i+8; k += raster.BytesPerPixel {
				switch fa := dst[k+1]; fa {
				case 255:
				case 0:
					dst[k], dst[k+1] = v, a
				default:
					dst[k], dst[k+1] = OverBlend(dst[k], fa, v, a)
				}
			}
		}
	}
	for ; i < len(dst); i += raster.BytesPerPixel {
		switch fa := dst[i+1]; fa {
		case 255:
		case 0:
			dst[i], dst[i+1] = v, a
		default:
			dst[i], dst[i+1] = OverBlend(dst[i], fa, v, a)
		}
	}
}

// overBlankBack is overRunBack over a blank back pixel (v, 0), the path of
// every blank TRLE template and blank RLE run under a resident front. Over
// a blank back, OverBlend returns a partial-alpha front pixel unchanged
// (OverBlend(fv, fa, bv, 0) == (fv, fa); TestOverBlankBackIsIdentity checks
// every case), so only blank front pixels change: they take the back pixel
// verbatim. An all-blank word becomes four back pixels, a word whose four
// alphas are all non-zero is left alone, and any other word has its blank
// pixels rewritten through a lane mask in one store.
func overBlankBack(dst []uint8, v uint8) {
	const (
		loLanes   = uint64(0x0001000100010001)
		loBytes   = uint64(0x00FF00FF00FF00FF)
		carryBits = uint64(0x0100010001000100)
	)
	pat := pixelWord(v, 0)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		fw := binary.LittleEndian.Uint64(dst[i:])
		if fw&alphaLanes == 0 {
			binary.LittleEndian.PutUint64(dst[i:], pat)
			continue
		}
		// Adding 0x00FF to each isolated alpha carries into bit 8 exactly
		// when it is non-zero; the lanes without a carry are the blanks.
		nz := ((fw>>8)&loBytes + loBytes) & carryBits
		if blank := (nz>>8 ^ loLanes) * 0xFFFF; blank != 0 {
			binary.LittleEndian.PutUint64(dst[i:], fw&^blank|pat&blank)
		}
	}
	for ; i < len(dst); i += raster.BytesPerPixel {
		if dst[i+1] == 0 {
			dst[i] = v
		}
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
