package raster

import (
	"bytes"
	"errors"
	"image/color"
	"image/png"
	"io"
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

// The file is an 8-bit gray+alpha PNG (colour type 4) and every pixel must
// survive as (v, v, v, a), also when the encoder state comes back from the
// pool after a larger or smaller frame.
func TestWritePNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range [][2]int{{9, 7}, {200, 150}, {3, 2}, {1, 1}, {200, 150}, {9, 7}} {
		im := RandomImage(rng, size[0], size[1], 0.4)
		var buf bytes.Buffer
		if err := im.WritePNG(&buf); err != nil {
			t.Fatal(err)
		}
		// Signature, then IHDR: length 13, type, width, height, depth,
		// colour type, compression, filter method, interlace.
		ihdr := buf.Bytes()[8:33]
		want := []byte{0, 0, 0, 13, 'I', 'H', 'D', 'R',
			0, 0, 0, byte(size[0]), 0, 0, 0, byte(size[1]), 8, 4, 0, 0, 0}
		if !bytes.Equal(ihdr[:len(want)], want) {
			t.Fatalf("%dx%d IHDR = %v, want %v", size[0], size[1], ihdr[:len(want)], want)
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
	if err := New(0, 4).WritePNG(io.Discard); err == nil {
		t.Fatal("an image without pixels was written as a PNG")
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

// A writer that fails at any byte of the file — inside any chunk — gets its
// own error back, and the pooled state it leaves behind still writes the
// next image correctly.
func TestWritePNGFailingWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	im := RandomImage(rng, 24, 16, 0.5)
	var good bytes.Buffer
	if err := im.WritePNG(&good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < good.Len(); n++ {
		if err := im.WritePNG(&failAfter{n}); !errors.Is(err, errSink) {
			t.Fatalf("writer failing after %d of %d bytes: err = %v", n, good.Len(), err)
		}
		var again bytes.Buffer
		if err := im.WritePNG(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), good.Bytes()) {
			t.Fatalf("file differs after a write that failed at byte %d", n)
		}
	}
}

// A warm WritePNG allocates nothing: the deflate writer, the file buffer and
// the chunk framing all live in the pooled state.
func TestWritePNGAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	im := RandomImage(rand.New(rand.NewSource(10)), 64, 48, 0.5)
	im.WritePNG(io.Discard)
	if n := testing.AllocsPerRun(20, func() { im.WritePNG(io.Discard) }); n > 0 {
		t.Fatalf("warm WritePNG allocates %.1f times", n)
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
