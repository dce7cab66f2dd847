package raster

import (
	"bytes"
	"image/color"
	"image/png"
	"math/rand"
	"testing"
)

func TestEncodePGM(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, 200, 255) // opaque -> 200
	im.Set(1, 0, 200, 127) // half transparent -> ~99 over black
	pgm := im.EncodePGM()
	if !bytes.HasPrefix(pgm, []byte("P5\n2 1\n255\n")) {
		t.Fatalf("header: %q", pgm[:12])
	}
	body := pgm[len(pgm)-2:]
	if body[0] != 200 {
		t.Fatalf("opaque pixel = %d", body[0])
	}
	if body[1] != uint8(200*127/255) {
		t.Fatalf("translucent pixel = %d", body[1])
	}
}

// Every pixel must survive as (v, v, v, a), also when the staging image and
// the encoder state come back from the pool after a larger or smaller frame.
func TestWritePNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range [][2]int{{9, 7}, {32, 20}, {3, 2}, {9, 7}} {
		im := RandomImage(rng, size[0], size[1], 0.4)
		var buf bytes.Buffer
		if err := im.WritePNG(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := png.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Bounds().Dx() != size[0] || decoded.Bounds().Dy() != size[1] {
			t.Fatalf("decoded bounds %v, want %dx%d", decoded.Bounds(), size[0], size[1])
		}
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				v, a := im.At(x, y)
				want := color.NRGBA{R: v, G: v, B: v, A: a}
				if got := color.NRGBAModel.Convert(decoded.At(x, y)); got != want {
					t.Fatalf("%dx%d pixel (%d,%d) = %v, want %v", size[0], size[1], x, y, got, want)
				}
			}
		}
	}
}

func TestUpscaleNearestCommutesWithCompositing(t *testing.T) {
	// upscale(a) over upscale(b) == upscale(a over b) for nearest-neighbour.
	rng := rand.New(rand.NewSource(6))
	a := RandomImage(rng, 16, 16, 0.4)
	b := RandomImage(rng, 16, 16, 0.4)
	overSmall := b.Clone()
	overU8(overSmall.Pix, a.Pix, overSmall.Pix)
	left := overSmall.UpscaleNearest(64, 48)

	ua, ub := a.UpscaleNearest(64, 48), b.UpscaleNearest(64, 48)
	right := ub.Clone()
	overU8(right.Pix, ua.Pix, right.Pix)
	if !Equal(left, right) {
		t.Fatal("nearest upscale does not commute with over")
	}
}

// overU8 is a local copy of the compose kernel to keep raster free of the
// compose dependency in tests (raster must not import compose).
func overU8(dst, front, back []uint8) {
	for i := 0; i < len(front); i += BytesPerPixel {
		fv, fa := front[i], front[i+1]
		switch fa {
		case 255:
			dst[i], dst[i+1] = fv, fa
		case 0:
			dst[i], dst[i+1] = back[i], back[i+1]
		default:
			bv, ba := back[i], back[i+1]
			inv := uint32(255 - fa)
			ca := uint32(fa)*255 + inv*uint32(ba)
			cv := uint32(fv)*uint32(fa)*255 + inv*uint32(ba)*uint32(bv)
			aa := (ca + 127) / 255
			var v uint32
			if ca > 0 {
				v = (cv + ca/2) / ca
			}
			dst[i], dst[i+1] = uint8(v), uint8(aa)
		}
	}
}

func TestUpscalePreservesBlankFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := RandomImage(rng, 32, 32, 0.5)
	up := im.UpscaleNearest(128, 128)
	if d := im.BlankFraction() - up.BlankFraction(); d > 0.02 || d < -0.02 {
		t.Fatalf("blank fraction drifted: %v vs %v", im.BlankFraction(), up.BlankFraction())
	}
}

func TestAddValueNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := RandomImage(rng, 32, 32, 0.5)
	orig := im.Clone()
	im.AddValueNoise(6, 99)
	changed := false
	for i := 0; i < len(im.Pix); i += BytesPerPixel {
		if im.Pix[i+1] != orig.Pix[i+1] {
			t.Fatal("noise touched alpha")
		}
		if orig.Pix[i+1] == 0 && im.Pix[i] != orig.Pix[i] {
			t.Fatal("noise touched a blank pixel")
		}
		d := int(im.Pix[i]) - int(orig.Pix[i])
		if d < -6 || d > 6 {
			t.Fatalf("noise amplitude %d exceeds 6", d)
		}
		if orig.Pix[i+1] != 0 && im.Pix[i] == 0 {
			t.Fatal("noise zeroed a non-blank value")
		}
		if d != 0 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("noise changed nothing")
	}
	// Deterministic.
	again := orig.Clone()
	again.AddValueNoise(6, 99)
	if !Equal(im, again) {
		t.Fatal("noise not deterministic")
	}
	// Zero amplitude is a no-op.
	before := im.Clone()
	im.AddValueNoise(0, 1)
	if !Equal(im, before) {
		t.Fatal("amp=0 changed the image")
	}
}

func TestCanonicalize(t *testing.T) {
	im := New(2, 1)
	im.Pix[0], im.Pix[1] = 42, 0 // stale value on blank pixel
	im.Pix[2], im.Pix[3] = 7, 9
	im.Canonicalize()
	if im.Pix[0] != 0 {
		t.Fatal("blank value not cleared")
	}
	if im.Pix[2] != 7 || im.Pix[3] != 9 {
		t.Fatal("non-blank pixel touched")
	}
}
