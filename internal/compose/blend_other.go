//go:build !amd64

package compose

// hasAVX2 and useAVX2 are false off amd64: OverU8 takes blendWordsGo for
// every pixel.
var hasAVX2, useAVX2 = false, false

// blendWords is blendWordsGo off amd64.
func blendWords(dst, front, back []uint8) { blendWordsGo(dst, front, back) }
