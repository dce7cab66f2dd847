package shearwarp

import (
	"bytes"
	"testing"

	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// The encoded volume must render byte-identically to the plain path for
// every dataset, cameras in every principal-axis octant (exercising all
// three encodings and the flips), and arbitrary slabs.
func TestRLEVolumeMatchesPlainExactly(t *testing.T) {
	cams := []Camera{
		{},                        // +Z
		{Yaw: 3.14},               // -Z (flip)
		{Yaw: 1.57},               // +X
		{Yaw: -1.57},              // -X
		{Pitch: 1.5},              // Y principal
		{Yaw: 0.4, Pitch: -0.3},   // sheared
		{Yaw: -2.62, Pitch: 0.25}, // sheared, flipped
		{Yaw: 2.0, Pitch: -1.2},   // Y principal, flipped
	}
	for _, name := range volume.Datasets {
		r := testRenderer(name, 24)
		rv := NewRLEVolume(r.Vol, r.TF)
		for _, cam := range cams {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			slabs, err := partition.Slabs1D(v.NK(), 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range slabs {
				plain, err := r.RenderSlab(v, s.Lo, s.Hi)
				if err != nil {
					t.Fatal(err)
				}
				rle, err := r.RenderSlabRLE(rv, v, s.Lo, s.Hi)
				if err != nil {
					t.Fatal(err)
				}
				if !raster.Equal(plain, rle) {
					t.Fatalf("%s cam=%+v slab=%+v: RLE render differs (maxdiff %d)",
						name, cam, s, raster.MaxDiff(plain, rle))
				}
			}
		}
	}
}

func TestRLEVolumeCompresses(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 48)
		rv := NewRLEVolume(r.Vol, r.TF)
		frac := rv.StoredFraction()
		if frac <= 0 || frac >= 0.9 {
			t.Fatalf("%s: stored fraction %.2f — encoding should drop most voxels", name, frac)
		}
	}
}

func TestRLEVolumePairing(t *testing.T) {
	r := testRenderer("engine", 16)
	otherTF := xfer.Isosurface(10, 200)
	rv := NewRLEVolume(r.Vol, otherTF)
	v, _ := r.Factor(Camera{})
	if _, err := r.RenderSlabRLE(rv, v, 0, v.NK()); err == nil {
		t.Fatal("mismatched transfer function accepted")
	}
	rvWrongDims := NewRLEVolume(volume.Engine(8), r.TF)
	if _, err := r.RenderSlabRLE(rvWrongDims, v, 0, v.NK()); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	rvOK := NewRLEVolume(r.Vol, r.TF)
	if _, err := r.RenderSlabRLE(rvOK, v, -1, 2); err == nil {
		t.Fatal("bad slab accepted")
	}
}

func TestRLEVolumeFallbackOnHoleyTF(t *testing.T) {
	tf := xfer.Ramp(50, 200, 255, 200)
	tf.Alpha[120] = 0
	r := &Renderer{Vol: volume.Head(20), TF: tf}
	rv := NewRLEVolume(r.Vol, tf)
	v, _ := r.Factor(Camera{Yaw: 0.3})
	plain, err := r.RenderSlab(v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RenderSlabRLE(rv, v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain, got) {
		t.Fatal("fallback differs from plain path")
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]runInterval{{5, 8}, {1, 3}, {2, 6}, {10, 12}})
	want := []runInterval{{1, 8}, {10, 12}}
	if len(got) != len(want) {
		t.Fatalf("mergeIntervals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeIntervals = %v, want %v", got, want)
		}
	}
	if mergeIntervals(nil) != nil {
		t.Fatal("empty merge not nil")
	}
}

func BenchmarkRenderSlabFromRLE(b *testing.B) {
	r := testRenderer("head", 96)
	rv := NewRLEVolume(r.Vol, r.TF)
	v, err := r.Factor(Camera{Yaw: 0.35, Pitch: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	// The first render along an axis encodes it; time the warm ones.
	if _, err := r.RenderSlabRLE(rv, v, 0, v.NK()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RenderSlabRLE(rv, v, 0, v.NK()); err != nil {
			b.Fatal(err)
		}
	}
}

// engineFrame renders the served frame's shape: engine 96³ into 384².
func engineFrame(b *testing.B) (r *Renderer, v *View, inter, final *raster.Image) {
	r = testRenderer("engine", 96)
	v, err := r.Factor(Camera{Yaw: 0.35, Pitch: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	if inter, err = r.RenderSlabAccel(v, 0, v.NK()); err != nil {
		b.Fatal(err)
	}
	if final, err = r.Warp(v, inter, 384, 384); err != nil {
		b.Fatal(err)
	}
	return r, v, inter, final
}

func BenchmarkWarp(b *testing.B) {
	r, v, inter, _ := engineFrame(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Warp(v, inter, 384, 384); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWritePNG(b *testing.B) {
	_, _, _, final := engineFrame(b)
	var file bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file.Reset()
		if err := final.WritePNG(&file); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(file.Len()), "B/file")
}

func BenchmarkNewRLEVolume(b *testing.B) {
	vol := volume.Head(96)
	tf := xfer.ForDataset("head")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRLEVolume(vol, tf).StoredFraction() // forces all three axes
	}
}
