//go:build !amd64

package compose

// blendWords is blendWordsGo off amd64.
func blendWords(dst, front, back []uint8) { blendWordsGo(dst, front, back) }
