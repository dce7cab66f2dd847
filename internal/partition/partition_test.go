package partition

import (
	"testing"
	"testing/quick"
)

func TestSlabs1DCoversInOrder(t *testing.T) {
	f := func(depth, p uint8) bool {
		d := int(depth)%500 + 1
		pp := int(p)%32 + 1
		if pp > d {
			pp = d
		}
		slabs, err := Slabs1D(d, pp)
		if err != nil {
			return false
		}
		at := 0
		min, max := d, 0
		for _, s := range slabs {
			if s.Lo != at || s.Len() <= 0 {
				return false
			}
			at = s.Hi
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		return at == d && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlabs1DErrors(t *testing.T) {
	if _, err := Slabs1D(4, 5); err == nil {
		t.Fatal("more ranks than slices accepted")
	}
	if _, err := Slabs1D(0, 1); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := Slabs1D(8, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

// Slab1D(d, p, r) is Slabs1D(d, p)[r] for every cut of up to 300 slices
// over up to 64 ranks, both agree with a running-sum cut, and where the cut
// is impossible both refuse it with the same error.
func TestSlab1DIsSlabs1D(t *testing.T) {
	for d := 1; d <= 300; d++ {
		for p := 1; p <= 64; p++ {
			slabs, err := Slabs1D(d, p)
			lo := 0
			for r := 0; r < p; r++ {
				got, rerr := Slab1D(d, p, r)
				if err != nil || rerr != nil {
					if err == nil || rerr == nil || err.Error() != rerr.Error() {
						t.Fatalf("d=%d p=%d r=%d: Slab1D error %v, Slabs1D error %v", d, p, r, rerr, err)
					}
					continue
				}
				size := d / p
				if r < d%p {
					size++
				}
				if want := (Slab{lo, lo + size}); got != slabs[r] || got != want {
					t.Fatalf("d=%d p=%d r=%d: Slab1D %v, Slabs1D %v, running sum %v", d, p, r, got, slabs[r], want)
				}
				lo += size
			}
		}
	}
	for _, r := range []int{-1, 4} {
		if _, err := Slab1D(8, 4, r); err == nil {
			t.Fatalf("Slab1D(8, 4, %d) succeeded, want a rank-range error", r)
		}
	}
}

func TestGrid2DTilesPlane(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16} {
		tiles, err := Grid2D(100, 80, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(tiles) != p {
			t.Fatalf("p=%d: %d tiles", p, len(tiles))
		}
		area := 0
		for _, tl := range tiles {
			if tl.X1 <= tl.X0 || tl.Y1 <= tl.Y0 {
				t.Fatalf("p=%d: empty tile %+v", p, tl)
			}
			area += (tl.X1 - tl.X0) * (tl.Y1 - tl.Y0)
		}
		if area != 100*80 {
			t.Fatalf("p=%d: tiles cover %d of %d", p, area, 100*80)
		}
		// No overlap: mark coverage.
		seen := make([]bool, 100*80)
		for _, tl := range tiles {
			for y := tl.Y0; y < tl.Y1; y++ {
				for x := tl.X0; x < tl.X1; x++ {
					if seen[y*100+x] {
						t.Fatalf("p=%d: pixel (%d,%d) covered twice", p, x, y)
					}
					seen[y*100+x] = true
				}
			}
		}
	}
}

func TestGrid2DPrefersSquare(t *testing.T) {
	tiles, err := Grid2D(64, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 16 = 4x4 grid: the first row must contain exactly 4 tiles.
	rowTiles := 0
	for _, tl := range tiles {
		if tl.Y0 == 0 {
			rowTiles++
		}
	}
	if rowTiles != 4 {
		t.Fatalf("16 tiles arranged with %d columns, want 4", rowTiles)
	}
}
