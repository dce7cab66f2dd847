package shearwarp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// Golden render hashes pin the exact pixel output of the full shear-warp
// pipeline (factor -> composite -> warp) for each phantom at a fixed view.
// They catch accidental behaviour changes in the renderer, the phantoms or
// the transfer presets; if a change is intentional, regenerate with the
// snippet in the failure message.
var goldenRenders = map[string]uint64{
	"engine": 0x81e2eca1a78d4747,
	"head":   0xfca42a5345a383c8,
	"brain":  0xbff0c51810ff4bda,
}

func TestGoldenRenderHashes(t *testing.T) {
	for _, name := range volume.Datasets {
		r := &Renderer{Vol: volume.ByName(name, 64), TF: xfer.ForDataset(name)}
		img, err := r.Render(Camera{Yaw: 0.35, Pitch: 0.2}, 128, 128)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(img.Pix)
		got := h.Sum64()
		if got != goldenRenders[name] {
			t.Errorf("%s render hash = %#016x, golden %#016x — if the change is intentional, "+
				"re-run this test body to regenerate the constants", name, got, goldenRenders[name])
		}
	}
}

// goldenPNG is the SHA-256 over every file TestWritePNGGolden writes. It was
// computed when WritePNG still went through compress/zlib, so any change to
// the framing, the checksum or the deflate settings must keep the files
// byte-identical.
const goldenPNG = "7bf45d1d84671e19cddb24ee469824ab3e1d9d76db1fd479655701078cff062e"

// The files rtserve sends — the three phantoms over the ledger's orbit at the
// served 384² and at 1024² — and synthetic images that reach the checksum's
// edge cases: dense noise, sparse partials, all-blank and all-0xFF rasters,
// and rows longer than the 5 552 bytes between two Adler-32 reductions.
func TestWritePNGGolden(t *testing.T) {
	h := sha256.New()
	var file bytes.Buffer
	write := func(im *raster.Image) {
		file.Reset()
		if err := im.WritePNG(&file); err != nil {
			t.Fatal(err)
		}
		h.Write(file.Bytes())
	}
	for _, name := range volume.Datasets {
		r := testRenderer(name, 96)
		rv := NewRLEVolume(r.Vol, r.TF)
		for _, cam := range orbitCameras() {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			inter, err := r.RenderSlabRLE(rv, v, 0, v.NK())
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{384, 1024} {
				final, err := r.Warp(v, inter, size, size)
				if err != nil {
					t.Fatal(err)
				}
				write(final)
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	for _, size := range [][2]int{{1, 1}, {3, 2}, {7, 5}, {64, 48}, {333, 211}, {2777, 3}, {4099, 2}} {
		w, hgt := size[0], size[1]
		write(raster.RandomImage(rng, w, hgt, 0.1))
		write(raster.PartialImage(rng, w, hgt, 1, 4))
		write(raster.New(w, hgt))
		full := raster.New(w, hgt)
		full.Fill(255, 255)
		write(full)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenPNG {
		t.Fatalf("PNG corpus digest %s, golden %s", got, goldenPNG)
	}
}
