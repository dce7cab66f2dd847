// Package partition implements the data-partitioning stage of the parallel
// volume rendering pipeline: the 1-D slab scheme (contiguous slice ranges
// along the compositing axis, one per processor, in depth order) and a 2-D
// block scheme over the slice plane, following the partitioning used by the
// paper's render stage.
package partition

import "fmt"

// Slab is a contiguous range of slice indices [Lo, Hi) along the
// compositing axis.
type Slab struct {
	Lo, Hi int
}

// Len reports the number of slices in the slab.
func (s Slab) Len() int { return s.Hi - s.Lo }

// Slabs1D cuts depth slices into p contiguous slabs of near-equal size, in
// front-to-back order — slab r belongs to rank r, so rank order is depth
// order, which is what the composition methods require.
func Slabs1D(depth, p int) ([]Slab, error) {
	if _, err := Slab1D(depth, p, 0); err != nil {
		return nil, err
	}
	out := make([]Slab, p)
	for r := range out {
		out[r], _ = Slab1D(depth, p, r) // r is in range: the cut is checked above
	}
	return out, nil
}

// Slab1D is rank r's slab of Slabs1D(depth, p), computed without the others:
// the first depth%p slabs hold one slice more than the rest.
func Slab1D(depth, p, r int) (Slab, error) {
	if p <= 0 || depth <= 0 {
		return Slab{}, fmt.Errorf("partition: need positive depth and p, got %d, %d", depth, p)
	}
	if p > depth {
		return Slab{}, fmt.Errorf("partition: %d ranks for %d slices", p, depth)
	}
	if r < 0 || r >= p {
		return Slab{}, fmt.Errorf("partition: rank %d of %d", r, p)
	}
	size, extra := depth/p, depth%p
	lo := r*size + min(r, extra)
	if r < extra {
		size++
	}
	return Slab{lo, lo + size}, nil
}

// Tile2D is an axis-aligned tile of the slice plane.
type Tile2D struct {
	X0, Y0, X1, Y1 int
}

// Grid2D cuts a w x h slice plane into p tiles arranged in the most square
// rows x cols grid with rows*cols == p, each tile of near-equal size. With
// a 2-D partition every rank renders the full depth of its tile, so the
// per-rank partial images have disjoint footprints.
func Grid2D(w, h, p int) ([]Tile2D, error) {
	if p <= 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("partition: need positive dims and p")
	}
	rows := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			rows = d
		}
	}
	cols := p / rows
	if rows > h || cols > w {
		return nil, fmt.Errorf("partition: grid %dx%d does not fit %dx%d plane", rows, cols, w, h)
	}
	tiles := make([]Tile2D, 0, p)
	y := 0
	for r := 0; r < rows; r++ {
		hh := h / rows
		if r < h%rows {
			hh++
		}
		x := 0
		for c := 0; c < cols; c++ {
			ww := w / cols
			if c < w%cols {
				ww++
			}
			tiles = append(tiles, Tile2D{X0: x, Y0: y, X1: x + ww, Y1: y + hh})
			x += ww
		}
		y += hh
	}
	return tiles, nil
}
