package compose

import (
	"math/rand"
	"testing"
)

// TestOverPixelAgreesWithFloatExactly sweeps the full 256x256 alpha plane
// and a stride-sampled grid of the two value channels (the value channels
// enter the over operator linearly, so a stride hits every carry/rounding
// regime) and requires the u8 kernel and the quantised float64 reference to
// agree EXACTLY — not within ±1. This is the oracle that the word-wide
// kernels and the codecs' fused decode+over paths are differentially tested
// against; a ±1 tolerance here would let a rounding bug hide under it.
//
// The single excluded corner is a non-canonical blank back pixel under a
// blank front (fa == 0, ba == 0, bv != 0): OverU8 deliberately passes the
// back through verbatim, while the float reference canonicalises a fully
// transparent result to (0, 0). Canonical rasters never contain such
// pixels.
func TestOverPixelAgreesWithFloatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive alpha sweep")
	}
	// 17 and 13 are coprime to 256, so the sampled values cover all
	// residues mod small powers of two — the regimes that matter for
	// rounding — while keeping the sweep around 16M pixels.
	const stride = 17
	const stride2 = 13
	var mismatches int
	for fa := 0; fa < 256; fa++ {
		for ba := 0; ba < 256; ba++ {
			for fv := 0; fv < 256; fv += stride {
				for bv := 0; bv < 256; bv += stride2 {
					if fa == 0 && ba == 0 && bv != 0 {
						continue
					}
					gv, ga := OverPixel(uint8(fv), uint8(fa), uint8(bv), uint8(ba))
					wv, wa := FOverPixel(float64(fv), float64(fa), float64(bv), float64(ba))
					if gv != clamp8(wv) || ga != clamp8(wa) {
						mismatches++
						if mismatches <= 10 {
							t.Errorf("OverPixel(%d,%d,%d,%d) = (%d,%d), float reference (%g,%g) -> (%d,%d)",
								fv, fa, bv, ba, gv, ga, wv, wa, clamp8(wv), clamp8(wa))
						}
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches between OverPixel and the float reference", mismatches)
	}
}

// TestOverBlankBackIsIdentity pins the identity overRunBack's blank-back
// path rests on: a partial-alpha front pixel over a blank back pixel is the
// front pixel, for every front value and alpha and every back value.
func TestOverBlankBackIsIdentity(t *testing.T) {
	for fa := 1; fa < 255; fa++ {
		for fv := 0; fv < 256; fv++ {
			for bv := 0; bv < 256; bv++ {
				if v, a := OverBlend(uint8(fv), uint8(fa), uint8(bv), 0); v != uint8(fv) || a != uint8(fa) {
					t.Fatalf("OverBlend(%d,%d,%d,0) = (%d,%d), want the front pixel", fv, fa, bv, v, a)
				}
			}
		}
	}
}

// TestOverU8MatchesOverPixel drives the word-wide kernel with images built
// to exercise every word class — all-opaque words, all-blank words, mixed
// words, and odd tails — and checks byte identity against a pure per-pixel
// walk.
func TestOverU8MatchesOverPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(133) // pixels; odd sizes leave word-loop tails
		front := randomPixels(rng, n)
		back := randomPixels(rng, n)
		want := make([]uint8, 2*n)
		for i := 0; i < n; i++ {
			want[2*i], want[2*i+1] = OverPixel(front[2*i], front[2*i+1], back[2*i], back[2*i+1])
		}
		got := make([]uint8, 2*n)
		OverU8(got, front, back)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: OverU8 differs from OverPixel at byte %d: got %d want %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestOverU8RunsMatchesMaterialized checks the run-oriented kernel against
// the oracle of materializing the runs into a scratch block and calling
// OverU8, in both orientations.
func TestOverU8RunsMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, runsFront := range []bool{true, false} {
		for trial := 0; trial < 60; trial++ {
			n := 16 + rng.Intn(200)
			resident := randomPixels(rng, n)
			// Non-overlapping runs with gaps, random alphas including the
			// 0 and 255 fast paths and non-canonical blank runs.
			var runs []Run
			layer := make([]uint8, 2*n) // blank where no run covers
			covered := make([]bool, n)
			for off := 0; off < n; {
				off += rng.Intn(5)
				if off >= n {
					break
				}
				ln := 1 + rng.Intn(n-off)
				var v, a uint8
				switch rng.Intn(4) {
				case 0:
					v, a = uint8(rng.Intn(256)), 0 // blank, maybe non-canonical
				case 1:
					v, a = uint8(rng.Intn(256)), 255
				default:
					v, a = uint8(rng.Intn(256)), uint8(1+rng.Intn(254))
				}
				runs = append(runs, Run{Off: off, N: ln, V: v, A: a})
				for i := off; i < off+ln; i++ {
					layer[2*i], layer[2*i+1] = v, a
					covered[i] = true
				}
				off += ln
			}
			want := make([]uint8, 2*n)
			if runsFront {
				OverU8(want, layer, resident)
				// Uncovered pixels are untouched by OverU8Runs; the oracle
				// composited blank-over-resident there, which passes the
				// resident through — same bytes either way.
			} else {
				OverU8(want, resident, layer)
				// Where no run covers, OverU8Runs leaves the resident pixel
				// alone but the oracle composited resident-over-blank, which
				// canonicalises resident blanks; mask those out.
				for i := 0; i < n; i++ {
					if !covered[i] {
						want[2*i], want[2*i+1] = resident[2*i], resident[2*i+1]
					}
				}
			}
			got := append([]uint8(nil), resident...)
			pix := OverU8Runs(got, runs, runsFront)
			wantPix := 0
			for _, r := range runs {
				wantPix += r.N
			}
			if pix != wantPix {
				t.Fatalf("OverU8Runs reported %d pixels, want %d", pix, wantPix)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("runsFront=%v trial %d: byte %d differs: got %d want %d",
						runsFront, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// randomPixels draws pixels that hit the kernels' word classes: stretches
// of opaque, stretches of blank (sometimes non-canonical), and mixed alpha.
func randomPixels(rng *rand.Rand, n int) []uint8 {
	pix := make([]uint8, 2*n)
	for i := 0; i < n; {
		ln := 1 + rng.Intn(9)
		mode := rng.Intn(4)
		for j := 0; j < ln && i < n; j, i = j+1, i+1 {
			switch mode {
			case 0: // blank (canonical)
				pix[2*i], pix[2*i+1] = 0, 0
			case 1: // opaque
				pix[2*i], pix[2*i+1] = uint8(rng.Intn(256)), 255
			case 2: // partial
				pix[2*i], pix[2*i+1] = uint8(rng.Intn(256)), uint8(1+rng.Intn(254))
			case 3: // non-canonical blank back pixels stress fa==0 passthrough
				pix[2*i], pix[2*i+1] = uint8(rng.Intn(256)), 0
			}
		}
	}
	return pix
}
