package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// forEachDispatch runs fn with useAVX2 off and, where the CPU has AVX2,
// on, and restores it after.
func forEachDispatch(t *testing.T, fn func(t *testing.T)) {
	dispatch := []bool{false}
	if compose.HasAVX2() {
		dispatch = append(dispatch, true)
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx2 := range dispatch {
		useAVX2 = avx2
		t.Run(fmt.Sprintf("avx2=%v", avx2), fn)
	}
}

// nibbleAlphas are the alphas the template tests draw from: zero, the
// smallest non-zero, both sides of the sign bit VPMOVMSKB reads, and opaque.
var nibbleAlphas = []uint8{0, 1, 0x7F, 0x80, 0xFF}

// TestTemplateNibblesMatchWordTemplate: templateNibbles under both
// dispatches against each group's template, pixel by pixel and through
// wordTemplate, for every block length from 0 to 300 pixels, so every tail
// and every offset in a 32-pixel vector comes up. Blank pixels carry
// non-zero values (a non-canonical blank is blank), the block sits at an
// odd address between non-blank bytes, and the bitmap starts out as
// garbage, as a reused pooled buffer does: every nibble past the last group
// must come out zero, and none the kernel wrote may be lost to the tail.
func TestTemplateNibblesMatchWordTemplate(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for npix := 0; npix <= 300; npix++ {
			for _, blank := range []int{0, 1, 5, 10} { // in tenths; 5 draws from nibbleAlphas
				buf := make([]uint8, 2*npix+80)
				for i := range buf {
					buf[i] = uint8(1 + rng.Intn(255))
				}
				off := 1 + 2*rng.Intn(8)
				pix := buf[off : off+2*npix]
				for i := 1; i < len(pix); i += 2 {
					switch {
					case blank == 5:
						pix[i] = nibbleAlphas[rng.Intn(len(nibbleAlphas))]
						if rng.Intn(6) == 0 {
							pix[i] = uint8(rng.Intn(256))
						}
					case rng.Intn(10) < blank:
						pix[i] = 0
					}
				}
				groups := (npix + templatePixels - 1) / templatePixels
				bm := make([]uint8, bitmapBytes(groups))
				for i := range bm {
					bm[i] = uint8(rng.Intn(256))
				}
				templateNibbles(bm, pix)
				for g := 0; g < 2*len(bm); g++ {
					got := bm[g/2] >> (4 * (g & 1)) & 0x0F
					var want uint8
					for j := 0; j < templatePixels; j++ {
						if i := g*templatePixels + j; i < npix && pix[2*i+1] != 0 {
							want |= 1 << (templatePixels - 1 - j)
						}
					}
					if g < groups {
						if wt := wordTemplate(loadWord(pix[groupBytes*g:])); wt != want {
							t.Fatalf("npix %d group %d: wordTemplate %04b, want %04b", npix, g, wt, want)
						}
					}
					if got != want {
						t.Fatalf("npix %d blank %d/10 group %d of %d: nibble %04b, want %04b",
							npix, blank, g, groups, got, want)
					}
				}
			}
		}
	})
}

// TestAllAlphasNonZeroEveryPosition: allAlphasNonZero under both dispatches
// on payloads of 0 to 130 bytes whose alphas are all non-zero, and on each
// of them with one zero alpha at every position. The value bytes are zero,
// so a compare that reads them instead of the alphas fails, and the bytes
// past the payload are zero alphas, so a read past its end fails too.
func TestAllAlphasNonZeroEveryPosition(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 130; n += 2 {
			buf := make([]uint8, n+64)
			pix := buf[:n]
			for i := 1; i < n; i += 2 {
				pix[i] = nibbleAlphas[1+rng.Intn(len(nibbleAlphas)-1)]
			}
			if !allAlphasNonZero(pix) {
				t.Fatalf("%d bytes, every alpha non-zero: reported a zero", n)
			}
			for p := 1; p < n; p += 2 {
				a := pix[p]
				pix[p] = 0
				if allAlphasNonZero(pix) {
					t.Fatalf("%d bytes, alpha of pixel %d zero: not reported", n, p/2)
				}
				pix[p] = a
			}
		}
	})
}

// TestRunStartsMatchesGo: runStartsAVX2 against its definition, runStartsGo,
// for every chunk count from 0 to 40, at limits 0, 1, the count after each
// chunk, the exact count and no limit. The blocks are the ledger's 10 %
// blank noise, low-entropy noise whose pairs are often equal, and both with
// up to five planted runs of 2 to 40 pixels, so chunks of sixteen equal
// pairs come up at many positions. A count that leaves a start out, that
// stops a chunk early or late, or that puts last anywhere but on the last
// start it counted fails here.
func TestRunStartsMatchesGo(t *testing.T) {
	if !compose.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(45))
	for chunks := 0; chunks <= 40; chunks++ {
		for trial := 0; trial < 12; trial++ {
			npix := 16*chunks + 1
			var pix []uint8
			if trial%2 == 0 {
				pix = raster.RandomImage(rng, npix, 1, 0.10).Pix
			} else {
				pix = make([]uint8, 2*npix)
				for i := 0; i < npix; i++ {
					pix[2*i], pix[2*i+1] = uint8(rng.Intn(2)), 255*uint8(rng.Intn(2))
				}
			}
			for k := trial / 2; k > 0 && npix > 1; k-- {
				lo := rng.Intn(npix)
				v, a := uint8(rng.Intn(256)), uint8(rng.Intn(256))
				for i := lo; i < min(npix, lo+2+rng.Intn(39)); i++ {
					pix[2*i], pix[2*i+1] = v, a
				}
			}
			exact, _ := runStartsGo(pix, chunks, math.MaxInt)
			limits := []int{0, 1, exact, math.MaxInt}
			for c := 1; c < chunks; c++ {
				prefix, _ := runStartsGo(pix, c, math.MaxInt)
				limits = append(limits, prefix)
			}
			for _, limit := range limits {
				ws, wl := runStartsGo(pix, chunks, limit)
				gs, gl := runStartsAVX2(pix, chunks, limit)
				if gs != ws || gl != wl {
					t.Fatalf("chunks %d trial %d limit %d: (starts, last) = (%d, %d), want (%d, %d)",
						chunks, trial, limit, gs, gl, ws, wl)
				}
			}
		}
	}
}
