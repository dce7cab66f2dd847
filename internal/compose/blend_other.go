//go:build !amd64

package compose

// useAVX2 is false off amd64: OverU8 takes blendWordsGo for every pixel.
var useAVX2 = false

// blendWords is blendWordsGo off amd64.
func blendWords(dst, front, back []uint8) { blendWordsGo(dst, front, back) }
