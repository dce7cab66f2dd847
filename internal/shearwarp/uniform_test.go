package shearwarp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// samplePositions are coordinates into a 3-texel axis that put every weight
// the kernel can form on the taps: both one-texel borders, exact integers
// (one weight is 0), exact halves, fractions a rounding away from 0 and
// from 1, and the fractions of TestRowKernelMatchesBilinear's offsets.
var samplePositions = []float64{
	-1 + 1e-16, -0.75, -0.5, -1e-17, 0, 1e-17, 0.25, 0.5, 0.7, 1 - 1e-16, 1,
	1 + 2e-16, 1.5, 2 - 2e-16, 2, 2.3, 2.5, 2.9999999999999996,
}

// The identity the kernel's shortcuts rest on: a sample whose taps all hold
// one scalar is that scalar, whatever the weights and however many of the
// four taps exist. bilinear has no shortcut; it is the unshortened
// arithmetic.
func TestUniformQuadIsExact(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {1, 3}, {3, 1}, {1, 1}} {
		ni, nj := dims[0], dims[1]
		slice := make([]uint8, ni*nj)
		for s := 0; s < 256; s++ {
			for i := range slice {
				slice[i] = uint8(s)
			}
			for _, i := range samplePositions {
				for _, j := range samplePositions {
					if i >= float64(ni) || j >= float64(nj) {
						continue
					}
					if got, ok := bilinear(slice, ni, nj, i, j); !ok || got != uint8(s) {
						t.Fatalf("%dx%d slice of %d sampled at (%v, %v) = %d, %v", ni, nj, s, i, j, got, ok)
					}
				}
			}
		}
	}
}

// bilinearVAFull is bilinearVA before its shortcuts.
func bilinearVAFull(im *raster.Image, x, y float64) (v, a uint8, ok bool) {
	if x <= -1 || y <= -1 || x >= float64(im.W) || y >= float64(im.H) {
		return 0, 0, false
	}
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	var accV, accA, wsum float64
	for dy := 0; dy <= 1; dy++ {
		for dx := 0; dx <= 1; dx++ {
			xx, yy := x0+dx, y0+dy
			if xx < 0 || yy < 0 || xx >= im.W || yy >= im.H {
				continue
			}
			w := (1 - math.Abs(float64(dx)-fx)) * (1 - math.Abs(float64(dy)-fy))
			pv, pa := im.At(xx, yy)
			accV += w * float64(pv) * float64(pa) / 255
			accA += w * float64(pa)
			wsum += w
		}
	}
	if wsum == 0 || accA == 0 {
		return 0, 0, false
	}
	return uint8(accV*255/accA + 0.5), uint8(accA/wsum + 0.5), true
}

// The warp's sampler settles four equal taps and four blank taps without
// arithmetic; the arithmetic must agree for every pixel value and alpha, and
// on images where equal, blank and differing neighbourhoods meet.
func TestWarpSamplerShortcutsAreExact(t *testing.T) {
	same := func(what string, im *raster.Image, x, y float64) {
		t.Helper()
		v, a, ok := bilinearVA(im, x, y)
		wv, wa, wok := bilinearVAFull(im, x, y)
		if v != wv || a != wa || ok != wok {
			t.Fatalf("%s at (%v, %v): (%d, %d, %v), unshortened arithmetic (%d, %d, %v)", what, x, y, v, a, ok, wv, wa, wok)
		}
	}
	im := raster.New(3, 3)
	for a := 0; a < 256; a++ {
		for v := 0; v < 256; v++ {
			for i := 0; i < len(im.Pix); i += 2 {
				im.Pix[i], im.Pix[i+1] = uint8(v), uint8(a)
			}
			for n, x := range samplePositions {
				// Every weight pair once, not every pair of pairs.
				same("constant image", im, x, samplePositions[(n*7+v)%len(samplePositions)])
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		im := plateauImage(rng, 9, 7)
		for n := 0; n < 400; n++ {
			same("plateau image", im, 11*rng.Float64()-1.5, 9*rng.Float64()-1.5)
		}
		for _, x := range samplePositions {
			for _, y := range samplePositions {
				same("plateau image", im, x+float64(rng.Intn(6)), y+float64(rng.Intn(4)))
			}
		}
	}
}

// plateauImage is a value+alpha image of constant blocks, some blank, some
// blank in alpha only, with one-pixel seams between them.
func plateauImage(rng *rand.Rand, w, h int) *raster.Image {
	im := raster.New(w, h)
	plateaus(rng, w, h, func(x, y int, s uint8) {
		switch s % 4 {
		case 0:
		case 1:
			im.Set(x, y, s, 0) // blank, but not the canonical blank
		default:
			im.Set(x, y, s, s|3)
		}
	})
	return im
}

// plateaus fills a w x h grid with a few constant rectangles painted over
// each other and then scratches one-texel seams of other values into it:
// neighbourhoods of four equal scalars next to every way of breaking one.
func plateaus(rng *rand.Rand, w, h int, set func(x, y int, s uint8)) {
	levels := []uint8{0, 1, 3, 4, 5, 120, 121, 200, 254, 255}
	level := func() uint8 { return levels[rng.Intn(len(levels))] }
	for n := 0; n < 5; n++ {
		x0, y0 := rng.Intn(w), rng.Intn(h)
		x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
		if n == 0 {
			x0, y0, x1, y1 = 0, 0, w, h
		}
		s := level()
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				set(x, y, s)
			}
		}
	}
	for n := 0; n < 3; n++ {
		s := level()
		if x, y := rng.Intn(w), rng.Intn(h); n%2 == 0 {
			for ; y < h; y++ {
				set(x, y, s)
			}
		} else {
			for ; x < w; x++ {
				set(x, y, s)
			}
		}
	}
}

// Plateau slices — which the random slices of TestRowKernelMatchesBilinear
// almost never produce — through the kernel against the bilinear walk: with
// no runs (span's own four-tap test), and with the two tables cutRuns makes
// of the slice (flat runs), for every transfer-function shape and every
// accumulation class.
func TestRowKernelPlateausMatchBilinear(t *testing.T) {
	holey := xfer.Ramp(2, 200, 255, 200)
	holey.Alpha[4], holey.Alpha[120] = 0, 0
	tfs := map[string]*xfer.Func{
		"ramp":       xfer.Ramp(2, 220, 245, 120),
		"holey":      holey,
		"isosurface": xfer.Isosurface(4, 210),
	}
	offsets := []float64{-2, -0.75, -0.5, 0, 1e-17, 0.25, 0.5, 1, 1 - 1e-16, 1.5, 2.3, 3, 3.5, 4.999999999999999}
	rng := rand.New(rand.NewSource(22))
	for name, tf := range tfs {
		r := &Renderer{TF: tf}
		for _, dims := range [][2]int{{1, 1}, {2, 5}, {5, 2}, {9, 7}, {16, 12}} {
			ni, nj := dims[0], dims[1]
			slice, opaque := make([]uint8, ni*nj), make([]bool, ni*nj)
			for trial := 0; trial < 60; trial++ {
				plateaus(rng, ni, nj, func(x, y int, s uint8) { slice[y*ni+x] = s })
				v := &View{ni: ni, nj: nj, nk: 1, wi: ni + 6, hi: nj + 6,
					oi: offsets[rng.Intn(len(offsets))], oj: offsets[rng.Intn(len(offsets))]}
				if trial%4 == 3 {
					v.oi, v.oj = 5*rng.Float64()-1, 5*rng.Float64()-1
				}
				clip := raster.Rect{X1: v.wi, Y1: v.hi}
				if trial%2 == 1 {
					clip = raster.Rect{X0: rng.Intn(3), Y0: rng.Intn(3), X1: v.wi - rng.Intn(3), Y1: v.hi - rng.Intn(3)}
				}
				// All three accumulation classes: blank, partial, opaque.
				want := raster.RandomImage(rng, v.wi, v.hi, 0.4)
				for i := 1; i < len(want.Pix); i += 2 * (1 + rng.Intn(4)) {
					want.Pix[i] = 255
				}
				got, gotRuns := want.Clone(), want.Clone()
				referenceSlice(want, tf, v, 0, slice, clip)
				r.compositeSlice(got, v, 0, slice, nil, clip)
				if !raster.Equal(want, got) {
					t.Fatalf("%s %dx%d offset (%v, %v) clip %+v: kernel differs from the bilinear walk (maxdiff %d)",
						name, ni, nj, v.oi, v.oj, clip, raster.MaxDiff(want, got))
				}
				if !r.transparentDownwardClosed() {
					continue // leaving samples out is not exact
				}
				for i, s := range slice {
					opaque[i] = tf.Alpha[s] != 0
				}
				mixed, flat := make([][]runInterval, nj), make([][]runInterval, nj)
				for j := range mixed {
					mixed[j], flat[j] = cutRuns(slice, opaque, ni, nj, j, nil, nil)
				}
				r.compositeRuns(gotRuns, v, 0, slice, mixed, flat, clip)
				if !raster.Equal(want, gotRuns) {
					t.Fatalf("%s %dx%d offset (%v, %v) clip %+v: kernel over cut runs differs (maxdiff %d)",
						name, ni, nj, v.oi, v.oj, clip, raster.MaxDiff(want, gotRuns))
				}
			}
		}
	}
}

// A run owns the pixels whose coordinate, as span rounds it, floors into
// the run — not the pixels exact arithmetic would give it.
func TestFirstPixelFollowsTheKernelsRounding(t *testing.T) {
	offsets := []float64{-2, -0.75, -1e-17, 0, 1e-17, 0.25, 0.5, 1 - 1e-16, 1, 1 + 2e-16, 2.3, 17 - 2e-15, 40.7, 95.99999999999999}
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 2000; n++ {
		offsets = append(offsets, 120*rng.Float64()-2)
	}
	for _, ui := range offsets {
		base := int(math.Ceil(ui))
		for c := -1; c <= 130; c++ {
			u := firstPixel(c, base, ui)
			if float64(u)-ui < float64(c) || float64(u-1)-ui >= float64(c) {
				t.Fatalf("firstPixel(%d) at offset %v = %d: coordinates %v, and %v one pixel before",
					c, ui, u, float64(u)-ui, float64(u-1)-ui)
			}
		}
	}
}

// mergeIntervals sorts and coalesces overlapping or touching intervals. The
// encoded volume's visit lists were built with it — the union of a row
// pair's stored intervals — before cutRuns cut them from the slice.
func mergeIntervals(ivs []runInterval) []runInterval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// solidVolume classifies opaque everywhere, faces included: blocks of two
// scalars, five voxels on a side.
func solidVolume(n int) *volume.Volume {
	vol := volume.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				vol.Set(x, y, z, uint8(150+40*((x/5+y/5+z/5)%2)))
			}
		}
	}
	return vol
}

// The encoded run tables are sound and complete, for every phantom and
// principal axis: every flat run holds one opaque scalar over both rows;
// flat and mixed runs are disjoint and lie inside the visit list they
// replaced (plus column -1, which that list forgot); what they leave out of
// it is transparent in all four taps; and no listed sample reads a voxel
// the encoding does not store, which is what lets RenderSlabRLE materialize
// stored voxels into a buffer it never clears.
func TestRLESegmentsSoundAndComplete(t *testing.T) {
	renderers := map[string]*Renderer{"solid": {Vol: solidVolume(12), TF: xfer.Ramp(50, 220, 255, 120)}}
	for _, name := range volume.Datasets {
		renderers[name] = testRenderer(name, 28)
	}
	for name, r := range renderers {
		rv := NewRLEVolume(r.Vol, r.TF)
		flatCols, mixedCols := 0, 0
		for a := 0; a < 3; a++ {
			enc := rv.axis(a)
			ni, nj := enc.ni, enc.nj
			v := &View{perm: [3]int{(a + 1) % 3, (a + 2) % 3, a}, ni: ni, nj: nj, nk: enc.nk}
			slice, stored := make([]uint8, ni*nj), make([]bool, ni*nj)
			for k := 0; k < enc.nk; k++ {
				r.extractSlice(v, k, slice)
				clear(stored)
				for j := 0; j < nj; j++ {
					for _, iv := range enc.rows[k*nj+j].intervals {
						for i := iv.lo; i < iv.hi; i++ {
							stored[j*ni+i] = true
						}
					}
				}
				for j := 0; j < nj; j++ {
					where := func(c int) string { return fmt.Sprintf("%s axis %d slice %d row %d column %d", name, a, k, j, c) }
					// The voxels a sample of column c reads between rows j, j+1.
					taps := func(c int) (idx []int) {
						for _, jj := range []int{j, j + 1} {
							for _, ii := range []int{c, c + 1} {
								if ii >= 0 && ii < ni && jj < nj {
									idx = append(idx, jj*ni+ii)
								}
							}
						}
						return idx
					}
					visit := append([]runInterval(nil), enc.rows[k*nj+j].intervals...)
					if j+1 < nj {
						visit = append(visit, enc.rows[k*nj+j+1].intervals...)
					}
					inVisit := make([]bool, ni+1) // inVisit[c+1]
					for _, iv := range mergeIntervals(visit) {
						for c := iv.lo; c < iv.hi; c++ {
							inVisit[c+1] = true
						}
					}
					inVisit[0] = inVisit[1]
					listed := make([]bool, ni+1)
					list := func(runs []runInterval, flat bool) {
						for n, run := range runs {
							if run.lo >= run.hi || run.lo < -1 || run.hi > ni || n > 0 && run.lo < runs[n-1].hi {
								t.Fatalf("%s: run %+v of %+v is empty, unsorted or outside the row", where(run.lo), run, runs)
							}
							for c := run.lo; c < run.hi; c++ {
								if listed[c+1] {
									t.Fatalf("%s listed twice", where(c))
								}
								listed[c+1] = true
								if !inVisit[c+1] {
									t.Fatalf("%s listed outside the stored rows' visit list", where(c))
								}
								for _, idx := range taps(c) {
									if !stored[idx] {
										t.Fatalf("%s: a listed sample reads voxel %d, which is not stored", where(c), idx)
									}
									if flat && (c < 0 || slice[idx] != slice[j*ni+run.lo] || r.TF.Alpha[slice[idx]] == 0) {
										t.Fatalf("%s: flat run %+v of scalar %d reads %d", where(c), run, slice[j*ni+run.lo], slice[idx])
									}
								}
							}
						}
					}
					list(enc.mixed[k*nj+j], false)
					list(enc.flat[k*nj+j], true)
					for c := -1; c < ni; c++ {
						if listed[c+1] {
							continue
						}
						for _, idx := range taps(c) {
							if r.TF.Alpha[slice[idx]] != 0 {
								t.Fatalf("%s is in neither list but reads opaque voxel %d", where(c), idx)
							}
						}
					}
					for _, run := range enc.mixed[k*nj+j] {
						mixedCols += run.hi - run.lo
					}
					for _, run := range enc.flat[k*nj+j] {
						flatCols += run.hi - run.lo
					}
				}
			}
		}
		t.Logf("%s: %d columns flat, %d mixed", name, flatCols, mixedCols)
		// brain has no two neighbouring rows alike at this size.
		if mixedCols == 0 || flatCols == 0 && name != "brain" {
			t.Fatalf("%s exercises only one kind of run (%d flat, %d mixed columns)", name, flatCols, mixedCols)
		}
	}
}

// Over the ledger's orbit — all three principal axes, flipped and not — the
// encoded volume renders byte-identically to the plain path on a phantom
// that is almost all mixed runs (brain), on two that are mostly flat, and on
// a solid block whose opaque voxels reach every face. The pooled slice
// buffer is poisoned first: a sample that read an unstored voxel would show.
func TestRLEOrbitMatchesPlainExactly(t *testing.T) {
	renderers := map[string]*Renderer{"solid": {Vol: solidVolume(12), TF: xfer.Ramp(50, 220, 255, 120)}}
	for _, name := range volume.Datasets {
		renderers[name] = testRenderer(name, 32)
	}
	for name, r := range renderers {
		rv := NewRLEVolume(r.Vol, r.TF)
		flipped := 0
		for _, cam := range append(orbitCameras(), Camera{Yaw: 2.0, Pitch: -1.2}, Camera{Pitch: 1.5}) {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			if v.flip[2] {
				flipped++
			}
			for _, slab := range [][2]int{{0, v.NK()}, {v.NK() / 3, 2 * v.NK() / 3}} {
				plain, err := r.RenderSlab(v, slab[0], slab[1])
				if err != nil {
					t.Fatal(err)
				}
				sc := getSlabScratch(v)
				for i := range sc.slice {
					sc.slice[i] = 255
				}
				slabScratchPool.Put(sc)
				rle, err := r.RenderSlabRLE(rv, v, slab[0], slab[1])
				if err != nil {
					t.Fatal(err)
				}
				if !raster.Equal(plain, rle) {
					t.Fatalf("%s cam %+v slab %v: RLE render differs in %d pixels (maxdiff %d)",
						name, cam, slab, raster.DiffCount(plain, rle, 0), raster.MaxDiff(plain, rle))
				}
			}
		}
		if flipped == 0 || flipped == 14 {
			t.Fatalf("%s: %d of 14 views flip the principal axis, want some of each", name, flipped)
		}
	}
}
