package shearwarp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// referenceSlice is the loop every render path used to spell out: visit
// every pixel of the clip, sample with bilinear, classify, composite behind.
func referenceSlice(out *raster.Image, tf *xfer.Func, v *View, k int, slice []uint8, clip raster.Rect) {
	ui, vj := v.oi+v.si*float64(k), v.oj+v.sj*float64(k)
	for v1 := clip.Y0; v1 < clip.Y1; v1++ {
		for u1 := clip.X0; u1 < clip.X1; u1++ {
			fv, fa := out.At(u1, v1)
			if fa == 255 {
				continue
			}
			s, ok := bilinear(slice, v.ni, v.nj, float64(u1)-ui, float64(v1)-vj)
			if !ok {
				continue
			}
			val, a := tf.Classify(s)
			if a == 0 {
				continue
			}
			nv, na := compose.OverPixel(fv, fa, val, a)
			out.Set(u1, v1, nv, na)
		}
	}
}

// The row kernel's interior path must reproduce bilinear bit for bit: tiny
// slices (where everything is border), offsets that are negative, exact
// integers and exact halves (weights of exactly 0.5 over neighbours 3 and 4
// put acc/wsum + 0.5 on an integer), offsets whose subtraction rounds, clips
// touching every border, and accumulations in all three alpha classes.
func TestRowKernelMatchesBilinear(t *testing.T) {
	holey := xfer.Ramp(2, 200, 255, 200)
	holey.Alpha[4], holey.Alpha[120] = 0, 0
	tfs := map[string]*xfer.Func{
		"ramp":       xfer.Ramp(2, 220, 245, 120),
		"holey":      holey,
		"isosurface": xfer.Isosurface(4, 210),
	}
	offsets := []float64{-2, -0.75, -0.5, 0, 1e-17, 0.25, 0.5, 1, 1 - 1e-16, 1.5, 2.3, 3, 3.5, 4.999999999999999}
	rng := rand.New(rand.NewSource(18))
	for name, tf := range tfs {
		r := &Renderer{TF: tf}
		for _, ni := range []int{1, 2, 3, 7} {
			for _, nj := range []int{1, 2, 3, 6} {
				slice := make([]uint8, ni*nj)
				for trial := 0; trial < 40; trial++ {
					for i := range slice {
						switch trial % 3 {
						case 0:
							slice[i] = uint8(rng.Intn(256))
						case 1:
							slice[i] = uint8(3 + (i+i/ni)%2) // 3 and 4 in a checkerboard
						default:
							slice[i] = uint8(rng.Intn(8))
						}
					}
					v := &View{ni: ni, nj: nj, nk: 1, wi: ni + 6, hi: nj + 6,
						oi: offsets[rng.Intn(len(offsets))], oj: offsets[rng.Intn(len(offsets))]}
					if trial%5 == 4 {
						v.oi, v.oj = 5*rng.Float64()-1, 5*rng.Float64()-1
					}
					clip := raster.Rect{X1: v.wi, Y1: v.hi}
					if trial%2 == 1 {
						clip = raster.Rect{X0: rng.Intn(3), Y0: rng.Intn(3), X1: v.wi - rng.Intn(3), Y1: v.hi - rng.Intn(3)}
					}
					want := raster.RandomImage(rng, v.wi, v.hi, 0.4)
					for i := 1; i < len(want.Pix); i += 2 * (1 + rng.Intn(4)) {
						want.Pix[i] = 255 // early-terminated pixels
					}
					got, gotRuns := want.Clone(), want.Clone()
					referenceSlice(want, tf, v, 0, slice, clip)
					r.compositeSlice(got, v, 0, slice, nil, clip)
					if !raster.Equal(want, got) {
						t.Fatalf("%s %dx%d offset (%v, %v) clip %+v: kernel differs from the bilinear walk (maxdiff %d)",
							name, ni, nj, v.oi, v.oj, clip, raster.MaxDiff(want, got))
					}
					// One run covering every column visits the same samples.
					runs := make([][]runInterval, nj)
					for j := range runs {
						runs[j] = []runInterval{{-1, ni}}
					}
					r.compositeSlice(gotRuns, v, 0, slice, runs, clip)
					if !raster.Equal(want, gotRuns) {
						t.Fatalf("%s %dx%d offset (%v, %v) clip %+v: full-run kernel differs (maxdiff %d)",
							name, ni, nj, v.oi, v.oj, clip, raster.MaxDiff(want, gotRuns))
					}
				}
			}
		}
	}
}

// warpFullScan is Warp before the row clip: every output pixel inverts the
// warp and samples.
func warpFullScan(v *View, inter *raster.Image, w, h int) *raster.Image {
	a, b := v.rp[0][0], v.rp[0][1]
	c, d := v.rp[1][0], v.rp[1][1]
	det := a*d - b*c
	ci, cj, ck := float64(v.ni-1)/2, float64(v.nj-1)/2, float64(v.nk-1)/2
	cx, cyv := v.rp[0][2]*ck, v.rp[1][2]*ck
	out := raster.New(w, h)
	for y := 0; y < h; y++ {
		ey := float64(y) - float64(h)/2 + cyv
		for x := 0; x < w; x++ {
			ex := float64(x) - float64(w)/2 + cx
			du := (d*ex - b*ey) / det
			dv := (a*ey - c*ex) / det
			if val, al, ok := bilinearVA(inter, du+v.oi+ci, dv+v.oj+cj); ok && al > 0 {
				out.Set(x, y, val, al)
			}
		}
	}
	return out
}

// orbitCameras is the ledger's 12-position orbit: a full turn of yaw with a
// pitch that swings once, so the principal axis changes along it.
func orbitCameras() []Camera {
	cams := make([]Camera, 12)
	for i := range cams {
		t := 2 * math.Pi * float64(i) / 12
		cams[i] = Camera{Yaw: math.Remainder(t, 2*math.Pi), Pitch: 0.3 * math.Sin(t)}
	}
	return cams
}

// The clipped warp must write exactly the pixels the full scan writes: in
// frames smaller than the footprint (nothing may be cut), in frames that
// are mostly blank, for axis-aligned cameras (an output row maps to a
// constant intermediate coordinate), and for intermediates that are blank
// or hold a single pixel in a corner.
func TestWarpClipMatchesFullScan(t *testing.T) {
	check := func(what string, r *Renderer, v *View, inter *raster.Image, size int) {
		t.Helper()
		got, err := r.Warp(v, inter, size, size)
		if err != nil {
			t.Fatal(err)
		}
		if want := warpFullScan(v, inter, size, size); !raster.Equal(want, got) {
			t.Fatalf("%s size %d: clipped warp differs from the full scan in %d pixels",
				what, size, raster.DiffCount(want, got, 0))
		}
	}
	aligned := []Camera{{}, {Yaw: math.Pi / 2}, {Yaw: math.Pi}, {Yaw: -math.Pi / 2}, {Pitch: math.Pi / 2}}
	for _, name := range volume.Datasets {
		r := testRenderer(name, 40)
		for _, cam := range append(orbitCameras(), aligned...) {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			inter, err := r.RenderSlabAccel(v, 0, v.NK())
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{16, 64, 384, 600} {
				check(fmt.Sprintf("%s cam %+v", name, cam), r, v, inter, size)
			}
		}
	}

	r := testRenderer("engine", 24)
	for _, cam := range []Camera{{}, {Yaw: 0.35, Pitch: 0.2}, {Yaw: -2.62, Pitch: 0.25}, {Yaw: 2.0, Pitch: -1.2}} {
		v, err := r.Factor(cam)
		if err != nil {
			t.Fatal(err)
		}
		wi, hi := v.IntermediateSize()
		check("blank intermediate", r, v, raster.New(wi, hi), 64)
		for _, corner := range [][2]int{{0, 0}, {wi - 1, 0}, {0, hi - 1}, {wi - 1, hi - 1}} {
			inter := raster.New(wi, hi)
			inter.Set(corner[0], corner[1], 200, 180)
			for _, size := range []int{16, 64, 200} {
				check(fmt.Sprintf("corner %v cam %+v", corner, cam), r, v, inter, size)
			}
		}
	}
}

func TestClipLine(t *testing.T) {
	for _, c := range []struct {
		p, q, lo, hi float64
		xLo, xHi     int // expected, for the pixel interval [0, 99]
	}{
		{0, 5, 0, 10, 0, 99},  // constant, inside: the row is kept whole
		{0, 11, 0, 10, 0, -1}, // constant, outside: the row is empty
		{math.Copysign(0, -1), -1, 0, 10, 0, -1},
		{1, 0, 20, 30, 18, 33},      // x in [20, 30], two pixels of margin
		{-1, 50, 20, 30, 18, 33},    // the same interval, walked backwards
		{0.5, -100, 0, 10, 0, -1},   // enters the range beyond the frame
		{1e-300, 5, 0, 10, 0, 99},   // quotients beyond the int range
		{1e-300, 11, 0, 10, 0, -1},  // ... on one side of the frame
		{1, -40.5, 0, 1000, 38, 99}, // clipped on the left only
	} {
		if xLo, xHi := clipLine(0, 99, c.p, c.q, c.lo, c.hi); xLo != c.xLo || xHi != c.xHi {
			t.Errorf("clipLine(p=%v q=%v [%v, %v]) = [%d, %d], want [%d, %d]",
				c.p, c.q, c.lo, c.hi, xLo, xHi, c.xLo, c.xHi)
		}
	}
}
