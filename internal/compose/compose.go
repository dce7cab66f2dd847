// Package compose implements the Porter-Duff "over" operator used to merge
// partial images in depth order, in both a fast uint8 path (the production
// kernel) and a float32 reference path used as ground truth in tests.
//
// Convention: ranks are numbered front to back, so the final image is
// layer(0) over layer(1) over ... over layer(P-1). All kernels operate on
// interleaved value+alpha byte slices as produced by raster.Image.
package compose

import (
	"fmt"

	"rtcomp/internal/raster"
)

// Stats accumulates the amount of compositing work performed, mirroring the
// paper's To (per-pixel "over" time) accounting.
type Stats struct {
	Pixels int // pixels passed through an over kernel
	Calls  int // kernel invocations
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Pixels += other.Pixels
	s.Calls += other.Calls
}

// OverBlend is the blended branch of the over operator for one pixel with
// 0 < fa < 255, in 16-bit fixed point; +127 and +ca/2 round to nearest.
// It is the definition of a blend: every scalar kernel in this package (and
// the codecs' fused decode+over kernels) funnels partial-alpha pixels
// through it, and the SIMD blendWords is proved and tested equal to it. It
// is exported — unlike OverPixel it fits the inlining budget, so hot loops
// outside the package write the fa switch out and call it directly.
func OverBlend(fv, fa, bv, ba uint8) (v, a uint8) {
	inv := uint32(255 - fa)
	ca := uint32(fa)*255 + inv*uint32(ba)
	cv := uint32(fv)*uint32(fa)*255 + inv*uint32(ba)*uint32(bv)
	ao := (ca + 127) / 255
	var vo uint32
	if ca > 0 {
		vo = (cv + ca/2) / ca
	}
	return uint8(vo), uint8(ao)
}

// OverPixel composites one front pixel over one back pixel, with the exact
// semantics of OverU8 including its short-circuits: an opaque front wins, a
// blank front passes the back through verbatim (even a non-canonical blank).
func OverPixel(fv, fa, bv, ba uint8) (v, a uint8) {
	switch fa {
	case 255:
		return fv, fa
	case 0:
		return bv, ba
	default:
		return OverBlend(fv, fa, bv, ba)
	}
}

// HasAVX2 reports whether this CPU runs AVX2 kernels: it has AVX2 and
// POPCNT and the OS saves the YMM state. It is the module's one CPU probe, decided once at
// package init (codec reads it for its own kernels), and false off amd64.
func HasAVX2() bool { return hasAVX2 }

// OverU8 composites front over back, writing the result into dst. All three
// slices must have the same even length (value+alpha interleaved); dst may
// be the same slice as front or back, but not a shifted overlap of either.
// It returns the number of pixels processed.
//
// Alpha is straight (non-premultiplied): out.a = fa + ba*(255-fa)/255 and
// out.v is the alpha-weighted blend. Fully opaque and fully blank front
// pixels short-circuit, which also makes the operator exactly associative
// whenever every alpha is 0 or 255.
//
// With AVX2 (useAVX2) the 8-byte-aligned prefix goes to blendWords in one
// call, which classifies and blends eight pixels per instruction stream,
// and the one to three pixels after it take blendWordsGo; without AVX2,
// blendWordsGo takes them all. The output is byte-identical to a
// pixel-at-a-time walk with OverPixel.
func OverU8(dst, front, back []uint8) int {
	if len(front) != len(back) || len(dst) != len(front) || len(front)%raster.BytesPerPixel != 0 {
		panic(fmt.Sprintf("compose: OverU8 length mismatch dst=%d front=%d back=%d",
			len(dst), len(front), len(back)))
	}
	n := 0
	if useAVX2 {
		n = len(front) &^ 7
		blendWords(dst[:n], front[:n], back[:n])
	}
	blendWordsGo(dst[n:], front[n:], back[n:])
	return len(front) / raster.BytesPerPixel
}

// blendWordsGo composites front over back into dst one pixel at a time. It
// is OverPixel's switch written out (OverPixel is over the inlining budget,
// and a call per pixel costs more than the blend itself), blendWords'
// portable definition, the kernel on an x86 CPU without AVX2, and
// blendWords itself off amd64.
func blendWordsGo(dst, front, back []uint8) {
	back = back[:len(front)]
	dst = dst[:len(front)]
	for k := 0; k+1 < len(front); k += raster.BytesPerPixel {
		fv, fa := front[k], front[k+1]
		switch fa {
		case 255:
			dst[k], dst[k+1] = fv, fa
		case 0:
			dst[k], dst[k+1] = back[k], back[k+1]
		default:
			dst[k], dst[k+1] = OverBlend(fv, fa, back[k], back[k+1])
		}
	}
}

// OverImage composites front over back in place on back's pixels, i.e.
// back <- front over back, covering the whole image.
func OverImage(back, front *raster.Image) int {
	return OverU8(back.Pix, front.Pix, back.Pix)
}

// SerialComposite folds layers front-to-back with OverU8 and returns the
// final image: layers[0] over layers[1] over ... It is the reference result
// every parallel composition method must reproduce.
func SerialComposite(layers []*raster.Image) *raster.Image {
	if len(layers) == 0 {
		panic("compose: SerialComposite with no layers")
	}
	out := layers[len(layers)-1].Clone()
	for i := len(layers) - 2; i >= 0; i-- {
		OverImage(out, layers[i])
	}
	return out
}

// FOverPixel is the float64 reference for a single pixel over operation on
// straight-alpha values in [0,255]. Used to bound quantisation error.
//
// It evaluates the over operator as one fused rational,
//
//	v = (fv·fa·255 + bv·ba·(255-fa)) / (fa·255 + ba·(255-fa))
//	a = (fa·255 + ba·(255-fa)) / 255
//
// rather than dividing each term by 255 first. For integer inputs every
// product above is an integer below 2^53, so numerator and denominator are
// exact in float64 and the quotient is correctly rounded — the earlier
// per-term form drifted by ±1 at rounding ties (e.g. low-alpha blends whose
// exact value channel lands on x.5), which made the float path disagree
// with OverU8's exact round-half-up integer arithmetic. With the fused form
// the quantised reference matches OverU8 exactly on canonical pixels; the
// agreement test in agreement_test.go pins that.
func FOverPixel(fv, fa, bv, ba float64) (v, a float64) {
	inv := 255 - fa
	ca := fa*255 + inv*ba
	if ca == 0 {
		return 0, 0
	}
	v = (fv*fa*255 + inv*ba*bv) / ca
	return v, ca / 255
}

// SerialCompositeF folds layers front-to-back entirely in float64 and
// quantises once at the end. It is the high-precision reference against
// which u8 association-order differences are measured.
func SerialCompositeF(layers []*raster.Image) *raster.Image {
	if len(layers) == 0 {
		panic("compose: SerialCompositeF with no layers")
	}
	w, h := layers[0].W, layers[0].H
	n := w * h
	accV := make([]float64, n)
	accA := make([]float64, n)
	back := layers[len(layers)-1]
	for i := 0; i < n; i++ {
		accV[i] = float64(back.Pix[2*i])
		accA[i] = float64(back.Pix[2*i+1])
	}
	for l := len(layers) - 2; l >= 0; l-- {
		pix := layers[l].Pix
		for i := 0; i < n; i++ {
			accV[i], accA[i] = FOverPixel(float64(pix[2*i]), float64(pix[2*i+1]), accV[i], accA[i])
		}
	}
	out := raster.New(w, h)
	for i := 0; i < n; i++ {
		out.Pix[2*i] = clamp8(accV[i])
		out.Pix[2*i+1] = clamp8(accA[i])
	}
	return out
}

func clamp8(x float64) uint8 {
	v := int(x + 0.5)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
