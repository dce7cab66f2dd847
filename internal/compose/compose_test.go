package compose

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcomp/internal/raster"
)

func pix(v, a uint8) []uint8 { return []uint8{v, a} }

func TestOverOpaqueFrontWins(t *testing.T) {
	dst := make([]uint8, 2)
	OverU8(dst, pix(100, 255), pix(50, 200))
	if dst[0] != 100 || dst[1] != 255 {
		t.Fatalf("got (%d,%d), want (100,255)", dst[0], dst[1])
	}
}

func TestOverBlankFrontPassesBack(t *testing.T) {
	dst := make([]uint8, 2)
	OverU8(dst, pix(0, 0), pix(50, 200))
	if dst[0] != 50 || dst[1] != 200 {
		t.Fatalf("got (%d,%d), want (50,200)", dst[0], dst[1])
	}
}

func TestOverBothBlankStaysBlank(t *testing.T) {
	dst := pix(9, 9)
	OverU8(dst, pix(0, 0), pix(0, 0))
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("got (%d,%d), want (0,0)", dst[0], dst[1])
	}
}

func TestOverHalfAlphaBlend(t *testing.T) {
	// front (200, 128) over back (100, 255):
	// outA = 128/255 + 1*(1-128/255) = 1 -> 255
	// outV = (200*0.50196 + 100*1*0.49804)/1 = 150.2 -> 150
	dst := make([]uint8, 2)
	OverU8(dst, pix(200, 128), pix(100, 255))
	wv, wa := FOverPixel(200, 128, 100, 255)
	if absInt(int(dst[0])-int(wv+0.5)) > 1 || absInt(int(dst[1])-int(wa+0.5)) > 1 {
		t.Fatalf("got (%d,%d), float reference (%v,%v)", dst[0], dst[1], wv, wa)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Against the float reference, the u8 kernel must be within 1 level.
func TestOverU8MatchesFloatReference(t *testing.T) {
	f := func(fv, fa, bv, ba uint8) bool {
		dst := make([]uint8, 2)
		OverU8(dst, pix(fv, fa), pix(bv, ba))
		wv, wa := FOverPixel(float64(fv), float64(fa), float64(bv), float64(ba))
		// When out-alpha is tiny the value channel is ill-conditioned;
		// weight the check by alpha.
		okA := absInt(int(dst[1])-int(wa+0.5)) <= 1
		okV := true
		if wa >= 8 {
			okV = absInt(int(dst[0])-int(wv+0.5)) <= 2
		}
		return okA && okV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// With binary alpha, over is exactly associative: (a over b) over c ==
// a over (b over c) byte for byte.
func TestBinaryAlphaExactAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randBinaryPix(rng)
		b := randBinaryPix(rng)
		c := randBinaryPix(rng)
		left := make([]uint8, 2)
		OverU8(left, a, b)
		OverU8(left, left, c)
		right := make([]uint8, 2)
		OverU8(right, b, c)
		OverU8(right, a, right)
		if left[0] != right[0] || left[1] != right[1] {
			t.Fatalf("associativity broken: a=%v b=%v c=%v left=%v right=%v", a, b, c, left, right)
		}
	}
}

func randBinaryPix(rng *rand.Rand) []uint8 {
	if rng.Intn(2) == 0 {
		return pix(0, 0)
	}
	return pix(uint8(rng.Intn(256)), 255)
}

func TestOverU8Aliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	front := raster.RandomImage(rng, 8, 8, 0.3)
	back := raster.RandomImage(rng, 8, 8, 0.3)
	want := make([]uint8, len(front.Pix))
	OverU8(want, front.Pix, back.Pix)
	// dst aliases back (the in-place production pattern).
	got := back.Clone()
	OverU8(got.Pix, front.Pix, got.Pix)
	for i := range want {
		if got.Pix[i] != want[i] {
			t.Fatalf("aliased result differs at byte %d", i)
		}
	}
}

func TestOverU8LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OverU8(make([]uint8, 2), make([]uint8, 4), make([]uint8, 4))
}

func TestSerialCompositeDepthOrder(t *testing.T) {
	// Three opaque layers: front layer must win everywhere it covers.
	l0 := raster.New(4, 1)
	l0.Set(0, 0, 10, 255)
	l1 := raster.New(4, 1)
	l1.Set(0, 0, 20, 255)
	l1.Set(1, 0, 21, 255)
	l2 := raster.New(4, 1)
	l2.Fill(30, 255)
	out := SerialComposite([]*raster.Image{l0, l1, l2})
	wantV := []uint8{10, 21, 30, 30}
	for x := 0; x < 4; x++ {
		if v, a := out.At(x, 0); v != wantV[x] || a != 255 {
			t.Fatalf("pixel %d = (%d,%d), want (%d,255)", x, v, a, wantV[x])
		}
	}
}

func TestSerialCompositeMatchesFloatWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layers := make([]*raster.Image, 6)
	for i := range layers {
		layers[i] = raster.RandomImage(rng, 16, 16, 0.4)
	}
	u8 := SerialComposite(layers)
	f := SerialCompositeF(layers)
	if d := raster.MaxDiff(u8, f); d > 3 {
		t.Fatalf("u8 vs float reference max diff %d", d)
	}
}

func TestOverSpanOnlyTouchesSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	back := raster.RandomImage(rng, 8, 8, 0.2)
	front := raster.RandomImage(rng, 8, 8, 0.2)
	orig := back.Clone()
	s := raster.Span{Lo: 10, Hi: 30}
	OverU8(back.SpanBytes(s), front.SpanBytes(s), back.SpanBytes(s))
	for i := 0; i < back.NPixels(); i++ {
		inSpan := i >= s.Lo && i < s.Hi
		same := back.Pix[2*i] == orig.Pix[2*i] && back.Pix[2*i+1] == orig.Pix[2*i+1]
		if !inSpan && !same {
			t.Fatalf("pixel %d outside span changed", i)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{Pixels: 10, Calls: 1})
	s.Add(Stats{Pixels: 5, Calls: 2})
	if s.Pixels != 15 || s.Calls != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// BenchmarkOverU8 times the kernel's four regimes on 512² layers, each
// into a dst of its own: sparse50, half the front pixels blank (nearly
// every eight-pixel vector mixed); noise10, the compose-tcp-noise-rle
// front (10 % blank, every vector mixed) over a back accumulated from
// three such layers; partial, every front alpha in 1..254 (all blends); disc, the
// ledger's sparse partials (raster.PartialImage, about 85 % blank, alphas
// 40..255) of ranks 0 and 1 of 4.
func BenchmarkOverU8(b *testing.B) {
	const edge = 512
	rng := rand.New(rand.NewSource(1))
	partial := raster.RandomImage(rng, edge, edge, 0)
	for i := 1; i < len(partial.Pix); i += raster.BytesPerPixel {
		partial.Pix[i] = uint8(1 + rng.Intn(254))
	}
	noise := func() *raster.Image { return raster.RandomImage(rng, edge, edge, 0.10) }
	accumulated := SerialComposite([]*raster.Image{noise(), noise(), noise()})
	for _, c := range []struct {
		name        string
		front, back *raster.Image
	}{
		{"sparse50", raster.RandomImage(rng, edge, edge, 0.5), raster.RandomImage(rng, edge, edge, 0.5)},
		{"noise10", noise(), accumulated},
		{"partial", partial, accumulated},
		{"disc", raster.PartialImage(rng, edge, edge, 0, 4), raster.PartialImage(rng, edge, edge, 1, 4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]uint8, len(c.front.Pix))
			b.SetBytes(int64(len(c.front.Pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OverU8(dst, c.front.Pix, c.back.Pix)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edge*edge), "ns/px")
		})
	}
}
