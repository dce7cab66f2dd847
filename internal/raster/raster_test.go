package raster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBlank(t *testing.T) {
	im := New(7, 5)
	if im.NPixels() != 35 {
		t.Fatalf("NPixels = %d, want 35", im.NPixels())
	}
	if got := im.BlankFraction(); got != 1 {
		t.Fatalf("BlankFraction of fresh image = %v, want 1", got)
	}
	v, a := im.At(3, 2)
	if v != 0 || a != 0 {
		t.Fatalf("At(3,2) = (%d,%d), want (0,0)", v, a)
	}
}

func TestSetAt(t *testing.T) {
	im := New(4, 4)
	im.Set(1, 2, 99, 200)
	v, a := im.At(1, 2)
	if v != 99 || a != 200 {
		t.Fatalf("round trip = (%d,%d), want (99,200)", v, a)
	}
	// Neighbours untouched.
	if v, a := im.At(2, 2); v != 0 || a != 0 {
		t.Fatalf("neighbour dirtied: (%d,%d)", v, a)
	}
}

func TestFill(t *testing.T) {
	im := New(3, 3)
	im.Fill(10, 20)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if v, a := im.At(x, y); v != 10 || a != 20 {
				t.Fatalf("pixel (%d,%d) = (%d,%d)", x, y, v, a)
			}
		}
	}
	if im.BlankFraction() != 0 {
		t.Fatalf("filled image blank fraction %v", im.BlankFraction())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1, 2)
	b := a.Clone()
	b.Set(0, 0, 3, 4)
	if v, _ := a.At(0, 0); v != 1 {
		t.Fatal("Clone shares backing store")
	}
	if !Equal(a, a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	if Equal(a, b) {
		t.Fatal("Equal after divergence = true")
	}
}

func TestSplitSpanCoversExactly(t *testing.T) {
	check := func(total, n int) {
		if total < 0 {
			total = -total
		}
		total %= 10000
		n = 1 + (abs(n) % 64)
		parts := SplitSpan(Span{0, total}, n)
		if len(parts) != n {
			t.Fatalf("got %d parts, want %d", len(parts), n)
		}
		at := 0
		for _, p := range parts {
			if p.Lo != at {
				t.Fatalf("gap or overlap at %d: %v", at, p)
			}
			if p.Len() < 0 {
				t.Fatalf("negative span %v", p)
			}
			at = p.Hi
		}
		if at != total {
			t.Fatalf("coverage ends at %d, want %d", at, total)
		}
		// Near-equal: max-min <= 1.
		min, max := total, 0
		for _, p := range parts {
			if p.Len() < min {
				min = p.Len()
			}
			if p.Len() > max {
				max = p.Len()
			}
		}
		if max-min > 1 {
			t.Fatalf("imbalance: min %d max %d", min, max)
		}
	}
	if err := quick.Check(func(total, n int) bool { check(total, n); return !t.Failed() }, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestHalvesProperty(t *testing.T) {
	f := func(lo, length uint16) bool {
		s := Span{int(lo), int(lo) + int(length)}
		a, b := s.Halves()
		return a.Lo == s.Lo && a.Hi == b.Lo && b.Hi == s.Hi &&
			a.Len()-b.Len() >= 0 && a.Len()-b.Len() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := RandomImage(rng, 16, 16, 0.3)
	s := Span{37, 181}
	data := append([]uint8(nil), im.SpanBytes(s)...)
	other := New(16, 16)
	other.InsertSpan(s, data)
	for i := s.Lo; i < s.Hi; i++ {
		if other.Pix[2*i] != im.Pix[2*i] || other.Pix[2*i+1] != im.Pix[2*i+1] {
			t.Fatalf("pixel %d differs after round trip", i)
		}
	}
	// Outside the span stays blank.
	if other.Pix[2*(s.Lo-1)+1] != 0 || other.Pix[2*s.Hi+1] != 0 {
		t.Fatal("InsertSpan leaked outside the span")
	}
}

func TestInsertSpanSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 4).InsertSpan(Span{0, 4}, make([]uint8, 3))
}

func TestMaxDiffAndDiffCount(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if MaxDiff(a, b) != 0 {
		t.Fatal("identical images differ")
	}
	b.Set(1, 1, 5, 0)
	if MaxDiff(a, b) != 5 {
		t.Fatalf("MaxDiff = %d, want 5", MaxDiff(a, b))
	}
	if DiffCount(a, b, 4) != 1 {
		t.Fatalf("DiffCount(tol=4) = %d, want 1", DiffCount(a, b, 4))
	}
	if DiffCount(a, b, 5) != 0 {
		t.Fatalf("DiffCount(tol=5) = %d, want 0", DiffCount(a, b, 5))
	}
}

func TestBoundingRect(t *testing.T) {
	im := New(10, 8)
	if !im.BoundingRect().Empty() {
		t.Fatal("blank image has non-empty bounding rect")
	}
	im.Set(3, 2, 1, 10)
	im.Set(7, 5, 1, 10)
	r := im.BoundingRect()
	want := Rect{3, 2, 8, 6}
	if r != want {
		t.Fatalf("BoundingRect = %+v, want %+v", r, want)
	}
}

func TestPartialImageOverlapStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := 8
	first := PartialImage(rng, 64, 64, 0, p)
	last := PartialImage(rng, 64, 64, p-1, p)
	// Ranks at opposite ends should not overlap.
	for i := 1; i < len(first.Pix); i += BytesPerPixel {
		if first.Pix[i] != 0 && last.Pix[i] != 0 {
			t.Fatal("rank 0 and rank p-1 partial images overlap")
		}
	}
	if first.BlankFraction() > 0.95 || first.BlankFraction() < 0.2 {
		t.Fatalf("unrealistic blank fraction %v", first.BlankFraction())
	}
}

func TestRandomBinaryImageAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := RandomBinaryImage(rng, 32, 32, 0.5)
	for i := 1; i < len(im.Pix); i += BytesPerPixel {
		if a := im.Pix[i]; a != 0 && a != 255 {
			t.Fatalf("non-binary alpha %d", a)
		}
	}
	bf := im.BlankFraction()
	if bf < 0.4 || bf > 0.6 {
		t.Fatalf("blank fraction %v far from 0.5", bf)
	}
}

func TestPSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := RandomImage(rng, 16, 16, 0.3)
	if p := PSNR(a, a.Clone()); !isInf(p) {
		t.Fatalf("PSNR of identical images = %v, want +Inf", p)
	}
	b := a.Clone()
	b.Pix[0] ^= 0xFF
	p1 := PSNR(a, b)
	if p1 <= 0 || isInf(p1) {
		t.Fatalf("PSNR with one corrupted byte = %v", p1)
	}
	// More corruption -> lower PSNR.
	c := a.Clone()
	for i := 0; i < len(c.Pix); i += 8 {
		c.Pix[i] ^= 0x80
	}
	if p2 := PSNR(a, c); p2 >= p1 {
		t.Fatalf("PSNR did not drop with more noise: %v vs %v", p2, p1)
	}
	if !isNaN(PSNR(a, New(2, 2))) {
		t.Fatal("mismatched sizes did not give NaN")
	}
}

func isInf(x float64) bool { return x > 1e308 }
func isNaN(x float64) bool { return x != x }
