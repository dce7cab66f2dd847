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

// sliceRuns computes, for each row pair j (sampling rows j and j+1), the
// active column intervals: i such that at least one of the voxels
// (i..i+1, j..j+1) classifies non-transparent. Intervals are dilated by
// one column on the left so a sample whose floor lands just before an
// opaque voxel is still visited. The table lands in sc.runs; its intervals
// and the occupancy mask live in sc and are overwritten by the next slice.
func (r *Renderer) sliceRuns(v *View, sc *slabScratch) {
	if cap(sc.occ) < len(sc.slice) {
		sc.occ = make([]bool, len(sc.slice))
	}
	occ := sc.occ[:len(sc.slice)]
	for idx, s := range sc.slice {
		occ[idx] = r.TF.Alpha[s] != 0
	}
	// One arena holds every row's intervals. Should it grow mid-slice, the
	// rows already cut from it keep the old array, which is still correct.
	ivs := sc.ivs[:0]
	for j := 0; j < v.nj; j++ {
		active := func(i int) bool {
			for dj := 0; dj <= 1; dj++ {
				jj := j + dj
				if jj >= v.nj {
					continue
				}
				for di := 0; di <= 1; di++ {
					ii := i + di
					if ii >= 0 && ii < v.ni && occ[jj*v.ni+ii] {
						return true
					}
				}
			}
			return false
		}
		start := len(ivs)
		inRun := false
		lo := 0
		for i := -1; i < v.ni; i++ {
			a := active(i)
			if a && !inRun {
				lo, inRun = i, true
			}
			if !a && inRun {
				ivs = append(ivs, runInterval{lo, i})
				inRun = false
			}
		}
		if inRun {
			ivs = append(ivs, runInterval{lo, v.ni})
		}
		sc.runs[j] = ivs[start:len(ivs):len(ivs)]
	}
	sc.ivs = ivs
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
		r.sliceRuns(v, sc)
		r.compositeSlice(out, v, k, sc.slice, sc.runs, v.frame())
	}
	return out, nil
}
