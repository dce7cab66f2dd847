package compose

// hasAVX2 reports whether the CPU has AVX2 and POPCNT and the OS saves the
// YMM state.
// It is decided once, at package init; HasAVX2 exports it.
var hasAVX2 = cpuHasAVX2()

// useAVX2 reports whether blendWords can run. OverU8 takes blendWordsGo
// for every pixel when it is false; it starts as hasAVX2, and tests flip it
// to run both paths.
var useAVX2 = hasAVX2

// blendWords composites front over back into dst exactly as blendWordsGo
// does, eight pixels per AVX2 instruction stream; only call it when
// useAVX2 is set. The three slices have the same length, a multiple of 8
// bytes; dst may be the same slice as front or back.
//
// It classifies each eight-pixel front vector in registers: all alphas 0
// stores the back, all 255 stores the front, anything else is blended.
// Each blended pixel is widened to a 32-bit lane and evaluated with
// OverBlend's formula: ca = fa·255 + (255-fa)·ba and ⌊ca/2⌋ in integers,
// cv = fv·fa·255 + bv·(255-fa)·ba in float32, vo = ⌊(cv + ⌊ca/2⌋) /
// max(ca, 1)⌋ by VDIVPS and truncation, and ao = ((ca+128) + ((ca+127)>>8))
// >> 8, which equals (ca+127)/255 for every ca ≤ 65 025. It is exact:
//
//   - every intermediate is an integer below 2²⁴ (cv + ⌊ca/2⌋ ≤ 16 613 887),
//     so float32 holds each one exactly;
//   - the quotient is below 256 and its divisor d is at most 65 025, so a
//     non-integer n/d lies at least 1/d > 2⁻¹⁶ below the next integer, while
//     half an ulp there is at most 2⁻¹⁷: the correctly rounded VDIVPS never
//     rounds up across an integer, and truncation equals the integer divide;
//   - an opaque front comes out of the same formula unchanged: fa = 255
//     gives (fv, 255);
//   - where fa == 0 the back pixel is selected verbatim, which keeps the
//     non-canonical blank passthrough.
//
// The blend is therefore already exact on opaque and blank pixels, and the
// classification gives the same bytes as blending every vector.
//
//go:noescape
func blendWords(dst, front, back []uint8)

// cpuHasAVX2 checks CPUID and XCR0 for AVX2, POPCNT and the YMM state.
func cpuHasAVX2() bool
