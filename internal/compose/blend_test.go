package compose

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBlendWordsMatchesOverPixel checks blendWords and its portable
// definition blendWordsGo against OverPixel on every (fv, fa, ba) for ten
// back values — six at the edges of the byte and four seeded — which is
// about 167 M pixels (two back values under the race detector), and then
// drives OverU8 with runs of mixed words between opaque and blank words,
// with tails, and with every aliasing.
func TestBlendWordsMatchesOverPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	t.Run("domain", func(t *testing.T) {
		bvs := []int{0, 1, 127, 128, 254, 255}
		for len(bvs) < 10 {
			bvs = append(bvs, rng.Intn(256))
		}
		if raceEnabled {
			bvs = []int{0, 128}
		}
		// Pixel k = ba<<8 | fv: front (fv, fa), back (bv, ba).
		const px = 256 * 256
		front, back := make([]uint8, 2*px), make([]uint8, 2*px)
		want, got := make([]uint8, 2*px), make([]uint8, 2*px)
		for k := 0; k < px; k++ {
			front[2*k] = uint8(k)
			back[2*k+1] = uint8(k >> 8)
		}
		for _, bv := range bvs {
			for k := 0; k < px; k++ {
				back[2*k] = uint8(bv)
			}
			for fa := 0; fa < 256; fa++ {
				for k := 0; k < px; k++ {
					front[2*k+1] = uint8(fa)
					want[2*k], want[2*k+1] = OverPixel(front[2*k], uint8(fa), uint8(bv), back[2*k+1])
				}
				for _, kern := range []struct {
					name string
					fn   func(dst, front, back []uint8)
				}{{"blendWords", blendWords}, {"blendWordsGo", blendWordsGo}} {
					kern.fn(got, front, back)
					if !bytes.Equal(got, want) {
						k := firstDiff(got, want) / 2
						t.Fatalf("%s(fv=%d, fa=%d, bv=%d, ba=%d) = (%d,%d), OverPixel (%d,%d)",
							kern.name, front[2*k], fa, bv, back[2*k+1], got[2*k], got[2*k+1], want[2*k], want[2*k+1])
					}
				}
			}
		}
	})
	t.Run("OverU8", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			words, tail := rng.Intn(13), rng.Intn(4)
			front, back := wordClassPixels(rng, words, tail), wordClassPixels(rng, words, tail)
			n := len(front)
			want := make([]uint8, n)
			for k := 0; k < n; k += 2 {
				want[k], want[k+1] = OverPixel(front[k], front[k+1], back[k], back[k+1])
			}
			for alias := 0; alias < 3; alias++ {
				f, b := append([]uint8(nil), front...), append([]uint8(nil), back...)
				dst := make([]uint8, n)
				switch alias {
				case 1:
					dst = f
				case 2:
					dst = b
				}
				OverU8(dst, f, b)
				if !bytes.Equal(dst, want) {
					k := firstDiff(dst, want)
					t.Fatalf("trial %d alias %d, %d pixels: byte %d = %d, want %d",
						trial, alias, n/2, k, dst[k], want[k])
				}
			}
		}
	})
}

// wordClassPixels draws the given number of four-pixel words, each all
// opaque, all blank (sometimes non-canonical) or mixed, then tail pixels,
// so that runs of mixed words start and end next to either fast-path class
// or at the last word.
func wordClassPixels(rng *rand.Rand, words, tail int) []uint8 {
	pix := make([]uint8, 0, 8*words+2*tail)
	for w := 0; w < words; w++ {
		class := rng.Intn(3)
		for j := 0; j < 4; j++ {
			v, a := uint8(rng.Intn(256)), uint8(rng.Intn(256))
			switch class {
			case 0:
				a = 255
			case 1:
				a = 0
			}
			pix = append(pix, v, a)
		}
	}
	for j := 0; j < tail; j++ {
		pix = append(pix, uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	return pix
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
