package shearwarp

import (
	"math"
	"testing"

	"rtcomp/internal/compose"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

func testRenderer(name string, n int) *Renderer {
	return &Renderer{Vol: volume.ByName(name, n), TF: xfer.ForDataset(name)}
}

func TestFactorPrincipalAxis(t *testing.T) {
	r := testRenderer("engine", 16)
	// Looking straight down +Z: principal axis is Z, no shear.
	v, err := r.Factor(Camera{})
	if err != nil {
		t.Fatal(err)
	}
	if v.perm[2] != 2 {
		t.Fatalf("principal axis = %d, want 2 (Z)", v.perm[2])
	}
	if math.Abs(v.si) > 1e-12 || math.Abs(v.sj) > 1e-12 {
		t.Fatalf("shear (%v,%v) for axis-aligned view", v.si, v.sj)
	}
	// Yaw 90 degrees: looking along X.
	v, err = r.Factor(Camera{Yaw: math.Pi / 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.perm[2] != 0 {
		t.Fatalf("principal axis = %d, want 0 (X)", v.perm[2])
	}
	// A tilted view keeps |shear| <= 1 (the factorization's guarantee for
	// views within the principal octant).
	v, err = r.Factor(Camera{Yaw: 0.4, Pitch: -0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.si) > 1.0+1e-9 || math.Abs(v.sj) > 1.0+1e-9 {
		t.Fatalf("shear (%v,%v) exceeds 1", v.si, v.sj)
	}
}

// A camera angle that is not a finite number is an error, not a view whose
// intermediate size is computed from NaN.
func TestFactorRejectsNonFiniteAngles(t *testing.T) {
	r := testRenderer("engine", 16)
	nan, inf := math.NaN(), math.Inf(1)
	for _, cam := range []Camera{
		{Yaw: nan}, {Yaw: inf}, {Yaw: -inf},
		{Pitch: nan}, {Pitch: inf}, {Pitch: -inf},
		{Yaw: nan, Pitch: nan}, {Yaw: 0.3, Pitch: -inf},
	} {
		if v, err := r.Factor(cam); err == nil {
			t.Fatalf("Factor(%+v) = %dx%d view, want an error", cam, v.wi, v.hi)
		}
	}
	if _, err := r.Factor(Camera{Yaw: -1e300, Pitch: math.MaxFloat64}); err != nil {
		t.Fatalf("huge finite angles: %v", err)
	}
}

func TestRenderProducesObjectAgainstBlankBackground(t *testing.T) {
	r := testRenderer("head", 32)
	img, err := r.Render(Camera{Yaw: 0.3, Pitch: 0.2}, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	bf := img.BlankFraction()
	if bf < 0.1 || bf > 0.95 {
		t.Fatalf("blank fraction %v: object/background structure missing", bf)
	}
}

// The parallel invariant: rendering slabs separately and compositing them
// front-to-back must reproduce the full intermediate image up to the u8
// quantisation tolerance (the two paths associate the per-pixel over chain
// differently, which can shift a channel by a couple of levels).
func TestSlabDecompositionIsExact(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 24)
		for _, cam := range []Camera{{}, {Yaw: 0.35, Pitch: -0.25}, {Yaw: -0.6}} {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			full, err := r.RenderIntermediate(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 3, 5} {
				slabs, err := partition.Slabs1D(v.NK(), p)
				if err != nil {
					t.Fatal(err)
				}
				layers := make([]*raster.Image, p)
				for i, s := range slabs {
					layers[i], err = r.RenderSlab(v, s.Lo, s.Hi)
					if err != nil {
						t.Fatal(err)
					}
				}
				got := compose.SerialComposite(layers)
				if d := raster.MaxDiff(got, full); d > 3 {
					t.Fatalf("%s cam=%+v p=%d: slab composite differs from full render by %d",
						name, cam, p, d)
				}
			}
		}
	}
}

func TestSlabDepthOrderMatters(t *testing.T) {
	// Compositing slabs back-to-front (wrong order) must NOT generally
	// reproduce the full image — this guards against the test above
	// passing vacuously on a commutative scene.
	r := testRenderer("engine", 24)
	v, err := r.Factor(Camera{Yaw: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := r.RenderIntermediate(v)
	slabs, _ := partition.Slabs1D(v.NK(), 3)
	layers := make([]*raster.Image, 3)
	for i, s := range slabs {
		layers[2-i], _ = r.RenderSlab(v, s.Lo, s.Hi) // reversed
	}
	got := compose.SerialComposite(layers)
	if raster.Equal(got, full) {
		t.Fatal("reversed slab order reproduced the image; scene has no depth structure")
	}
}

func TestRenderSlabBounds(t *testing.T) {
	r := testRenderer("brain", 16)
	v, err := r.Factor(Camera{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RenderSlab(v, -1, 4); err == nil {
		t.Fatal("negative slab accepted")
	}
	if _, err := r.RenderSlab(v, 0, v.NK()+1); err == nil {
		t.Fatal("overlong slab accepted")
	}
	empty, err := r.RenderSlab(v, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if empty.BlankFraction() != 1 {
		t.Fatal("empty slab rendered content")
	}
}

func TestWarpSizeMismatch(t *testing.T) {
	r := testRenderer("brain", 16)
	v, _ := r.Factor(Camera{})
	if _, err := r.Warp(v, raster.New(3, 3), 32, 32); err == nil {
		t.Fatal("mismatched intermediate accepted")
	}
}

// The shear-warp result must structurally agree with the independent
// ray-caster: same object silhouette, similar values.
func TestShearWarpMatchesRayCast(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 32)
		cam := Camera{Yaw: 0.3, Pitch: 0.15}
		sw, err := r.Render(cam, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		rc := RayCast(r.Vol, r.TF, cam, 64, 64)
		// Silhouette agreement: fraction of pixels where exactly one of
		// the two images is blank must be small.
		mismatch, covered := 0, 0
		for i := 1; i < len(sw.Pix); i += raster.BytesPerPixel {
			a, b := sw.Pix[i] != 0, rc.Pix[i] != 0
			if a || b {
				covered++
				if a != b {
					mismatch++
				}
			}
		}
		if covered == 0 {
			t.Fatalf("%s: both renderers produced blank images", name)
		}
		if frac := float64(mismatch) / float64(covered); frac > 0.25 {
			t.Fatalf("%s: silhouette mismatch fraction %.2f", name, frac)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := testRenderer("engine", 24)
	a, err := r.Render(Camera{Yaw: 0.2}, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Render(Camera{Yaw: 0.2}, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(a, b) {
		t.Fatal("render not deterministic")
	}
}

func TestCanonicalBlanks(t *testing.T) {
	r := testRenderer("head", 24)
	v, _ := r.Factor(Camera{Yaw: 0.25})
	img, err := r.RenderSlab(v, 0, v.NK()/2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(img.Pix); i += raster.BytesPerPixel {
		if img.Pix[i+1] == 0 && img.Pix[i] != 0 {
			t.Fatal("non-canonical blank pixel in rendered slab")
		}
	}
}

// 2-D tiles have disjoint footprints; compositing them in any order must
// reproduce the full intermediate image exactly.
func TestTileDecompositionIsExact(t *testing.T) {
	r := testRenderer("head", 24)
	for _, cam := range []Camera{{}, {Yaw: 0.4, Pitch: -0.2}} {
		v, err := r.Factor(cam)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.RenderIntermediate(v)
		if err != nil {
			t.Fatal(err)
		}
		wi, hi := v.IntermediateSize()
		tiles, err := partition.Grid2D(wi, hi, 6)
		if err != nil {
			t.Fatal(err)
		}
		layers := make([]*raster.Image, len(tiles))
		for i, tl := range tiles {
			layers[i], err = r.RenderTile(v, tl.X0, tl.Y0, tl.X1, tl.Y1)
			if err != nil {
				t.Fatal(err)
			}
		}
		// Reverse order on purpose: disjoint footprints commute.
		for i, j := 0, len(layers)-1; i < j; i, j = i+1, j-1 {
			layers[i], layers[j] = layers[j], layers[i]
		}
		got := compose.SerialComposite(layers)
		if !raster.Equal(got, full) {
			t.Fatalf("cam=%+v: tile composite differs from full render", cam)
		}
	}
}

func TestRenderTileBounds(t *testing.T) {
	r := testRenderer("engine", 16)
	v, _ := r.Factor(Camera{})
	wi, hi := v.IntermediateSize()
	if _, err := r.RenderTile(v, -1, 0, wi, hi); err == nil {
		t.Fatal("negative tile accepted")
	}
	if _, err := r.RenderTile(v, 0, 0, wi+1, hi); err == nil {
		t.Fatal("oversized tile accepted")
	}
}

// A full yaw orbit crosses every principal-axis octant; the factorization
// and renderer must handle all of them.
func TestFullOrbitAllPrincipalAxes(t *testing.T) {
	r := testRenderer("engine", 24)
	axes := map[int]bool{}
	for f := 0; f < 12; f++ {
		cam := Camera{Yaw: 2 * math.Pi * float64(f) / 12, Pitch: 0.2}
		v, err := r.Factor(cam)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		axes[v.perm[2]] = true
		img, err := r.RenderSlab(v, 0, v.NK())
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if img.BlankFraction() == 1 {
			t.Fatalf("frame %d rendered nothing", f)
		}
	}
	if !axes[0] || !axes[2] {
		t.Fatalf("orbit did not exercise both X and Z principal axes: %v", axes)
	}
}
