package compose

// blendWords composites front over back into dst exactly as blendWordsGo
// does, four pixels per SSE2 instruction stream. The three slices have the
// same length, a multiple of 8 bytes; dst may be the same slice as front or
// back. SSE2 is in every amd64 baseline, so there is no dispatch.
//
// Each pixel is widened to a 32-bit lane and evaluated with OverBlend's
// formula: ca = fa·255 + (255-fa)·ba and ⌊ca/2⌋ in integers, cv =
// fv·fa·255 + bv·(255-fa)·ba in float32, vo = ⌊(cv + ⌊ca/2⌋) / max(ca, 1)⌋
// by DIVPS and truncation, and ao = ((ca+128) + ((ca+127)>>8)) >> 8, which
// equals (ca+127)/255 for every ca ≤ 65 025. It is exact:
//
//   - every intermediate is an integer below 2²⁴ (cv + ⌊ca/2⌋ ≤ 16 613 887),
//     so float32 holds each one exactly;
//   - the quotient is below 256 and its divisor d is at most 65 025, so a
//     non-integer n/d lies at least 1/d > 2⁻¹⁶ below the next integer, while
//     half an ulp there is at most 2⁻¹⁷: the correctly rounded DIVPS never
//     rounds up across an integer, and truncation equals the integer divide;
//   - an opaque front comes out of the same formula unchanged: fa = 255
//     gives (fv, 255);
//   - where fa == 0 the back pixel is selected verbatim, which keeps the
//     non-canonical blank passthrough.
//
//go:noescape
func blendWords(dst, front, back []uint8)
