package shearwarp

import (
	"fmt"

	"rtcomp/internal/raster"
)

// Opacity-coherence acceleration (the spirit of Lacroute's run-length
// encoded volume traversal): almost all volume data classifies to
// transparent, so the renderer precomputes, per slice row, the runs of
// columns whose voxels could contribute, and the resampling loop hops over
// the transparent gaps instead of sampling them.
//
// The skip test is exact whenever the transfer function's transparent
// scalars form a downward-closed interval [0, lo): bilinear interpolation
// is a convex combination, so four transparent voxels can only produce a
// transparent sample. TransparentDownwardClosed reports whether a transfer
// function qualifies; RenderSlabAccel falls back to the plain path when it
// does not.

// transparentDownwardClosed reports whether the set of scalars classified
// fully transparent is exactly [0, k) for some k — the condition under
// which skipping all-transparent voxel neighbourhoods is lossless.
func (r *Renderer) transparentDownwardClosed() bool {
	seenOpaque := false
	for s := 0; s < 256; s++ {
		if r.TF.Alpha[s] != 0 {
			seenOpaque = true
		} else if seenOpaque {
			return false
		}
	}
	return true
}

// runInterval is a half-open active column interval [lo, hi) in slice
// coordinates.
type runInterval struct {
	lo, hi int
}

// cutRuns sorts the samples between rows j and j+1 of a slice by what their
// taps hold. A sample whose coordinate along i floors to column c reads the
// voxels of columns c and c+1 in the two rows, as far as they exist. When
// none of them is opaque the sample is transparent (the transfer function
// is downward closed, or the encoding is not used) and c is in neither
// list; when they all hold one scalar the sample is that scalar and c goes
// to flat; anything else goes to mixed and is resampled. Both lists are
// exact, so a listed sample reads stored voxels only: an opaque tap has
// the other three in its 3x3 neighbourhood. Column -1, which reads column
// 0 alone, is never flat: its samples include the coordinate -1 itself,
// where bilinear finds no weight at all.
func cutRuns(slice []uint8, opaque []bool, ni, nj, j int, mixed, flat []runInterval) ([]runInterval, []runInterval) {
	row0, op0 := slice[j*ni:(j+1)*ni], opaque[j*ni:(j+1)*ni]
	row1, op1 := row0, op0
	if j+1 < nj {
		row1, op1 = slice[(j+1)*ni:(j+2)*ni], opaque[(j+1)*ni:(j+2)*ni]
	}
	const (
		skipped = iota
		isMixed
		isFlat
	)
	kind, lo := skipped, 0
	for c := -1; c <= ni; c++ {
		now := skipped
		if c < ni {
			c0, c1 := max(c, 0), min(c+1, ni-1)
			switch t := row0[c0]; {
			case !(op0[c0] || op0[c1] || op1[c0] || op1[c1]):
			case c >= 0 && t == row0[c1] && t == row1[c0] && t == row1[c1]:
				now = isFlat
			default:
				now = isMixed
			}
		}
		if now == kind {
			continue
		}
		switch kind {
		case isMixed:
			mixed = append(mixed, runInterval{lo, c})
		case isFlat:
			flat = append(flat, runInterval{lo, c})
		}
		kind, lo = now, c
	}
	return mixed, flat
}

// sliceRuns cuts the slice in sc.slice into compositeRuns' two tables, one
// cutRuns per row pair. The tables and their intervals live in sc and are
// overwritten by the next slice.
func (r *Renderer) sliceRuns(v *View, sc *slabScratch) (mixed, flat [][]runInterval) {
	if cap(sc.occ) < len(sc.slice) {
		sc.occ = make([]bool, len(sc.slice))
	}
	if cap(sc.runs) < 2*v.nj {
		sc.runs = make([][]runInterval, 2*v.nj)
	}
	occ := sc.occ[:len(sc.slice)]
	for idx, s := range sc.slice {
		occ[idx] = r.TF.Alpha[s] != 0
	}
	mixed, flat = sc.runs[:v.nj], sc.runs[v.nj:2*v.nj]
	// Two arenas hold every row's intervals. Should one grow mid-slice, the
	// rows already cut from it keep the old array, which is still correct.
	m, f := sc.mixed[:0], sc.flat[:0]
	for j := range mixed {
		m0, f0 := len(m), len(f)
		m, f = cutRuns(sc.slice, occ, v.ni, v.nj, j, m, f)
		mixed[j], flat[j] = m[m0:len(m):len(m)], f[f0:len(f):len(f)]
	}
	sc.mixed, sc.flat = m, f
	return mixed, flat
}

// RenderSlabAccel renders exactly what RenderSlab renders, skipping
// transparent voxel runs. When the transfer function's transparent set is
// not downward closed the plain path runs instead.
func (r *Renderer) RenderSlabAccel(v *View, kLo, kHi int) (*raster.Image, error) {
	if !r.transparentDownwardClosed() {
		return r.RenderSlab(v, kLo, kHi)
	}
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return nil, fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	out := raster.New(v.wi, v.hi)
	sc := getSlabScratch(v)
	defer slabScratchPool.Put(sc)
	for k := kLo; k < kHi; k++ {
		r.extractSlice(v, k, sc.slice)
		mixed, flat := r.sliceRuns(v, sc)
		r.compositeRuns(out, v, k, sc.slice, mixed, flat, v.frame())
	}
	return out, nil
}
