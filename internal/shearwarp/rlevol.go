package shearwarp

import (
	"fmt"
	"sync"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// RLEVolume is the run-length encoded classified volume of Lacroute &
// Levoy — the data structure that makes shear-warp fast. Each principal
// axis has its own encoding: per-row runs covering only the voxels that can
// contribute to the image, the voxels within one in-plane step of a
// non-transparent voxel (the one-voxel dilation keeps bilinear resampling
// byte-exact at run boundaries). Rendering a frame then touches memory
// proportional to the visible data, not the volume.
//
// An axis is encoded the first time a view along it is rendered and never
// again, so a volume kept across frames pays for each axis once and a
// one-shot caller pays for the one axis its camera uses. After that first
// use the encoding is read-only: an RLEVolume may be rendered from any
// number of goroutines.
//
// An RLEVolume is built against one transfer function; rendering it with a
// different classification would skip the wrong voxels, so the renderer
// checks the pairing.
type RLEVolume struct {
	vol  *volume.Volume
	tf   *xfer.Func
	dims [3]int
	// skippable records, once, that tf's transparent scalars are downward
	// closed: the condition under which leaving samples out is exact.
	skippable bool
	axes      [3]struct {
		once sync.Once
		enc  axisRLE
	}
}

type axisRLE struct {
	ni, nj, nk int
	// rows[k*nj + j] is the run list of row j in slice k, in the permuted
	// frame of this principal axis.
	rows   []rleRow
	stored int64
	// mixed[k*nj + j] and flat[k*nj + j] are compositeRuns' two tables for
	// the samples between rows j and j+1 of slice k (cutRuns).
	mixed, flat [][]runInterval
}

type rleRow struct {
	intervals []runInterval
	vals      []uint8 // concatenated scalars of the intervals' voxels
}

// NewRLEVolume binds vol to its classification tf; the per-axis encodings
// are built on first use.
func NewRLEVolume(vol *volume.Volume, tf *xfer.Func) *RLEVolume {
	return &RLEVolume{vol: vol, tf: tf, dims: [3]int{vol.NX, vol.NY, vol.NZ},
		skippable: (&Renderer{Vol: vol, TF: tf}).transparentDownwardClosed()}
}

// axis returns the encoding for one principal axis, building it on first use.
func (rv *RLEVolume) axis(a int) *axisRLE {
	ax := &rv.axes[a]
	ax.once.Do(func() { ax.enc = encodeAxis(rv.vol, rv.tf, a) })
	return &ax.enc
}

// encodeAxis builds the encoding for one principal axis: permuted frame
// (i, j, k) = ((axis+1)%3, (axis+2)%3, axis), matching Renderer.Factor.
func encodeAxis(vol *volume.Volume, tf *xfer.Func, axis int) axisRLE {
	perm := [3]int{(axis + 1) % 3, (axis + 2) % 3, axis}
	dims := [3]int{vol.NX, vol.NY, vol.NZ}
	ni, nj, nk := dims[perm[0]], dims[perm[1]], dims[perm[2]]
	enc := axisRLE{ni: ni, nj: nj, nk: nk, rows: make([]rleRow, nj*nk),
		mixed: make([][]runInterval, nj*nk), flat: make([][]runInterval, nj*nk)}

	slice := make([]uint8, ni*nj)
	opaque := make([]bool, ni*nj)
	var p [3]int
	for k := 0; k < nk; k++ {
		p[perm[2]] = k
		idx := 0
		for j := 0; j < nj; j++ {
			p[perm[1]] = j
			for i := 0; i < ni; i++ {
				p[perm[0]] = i
				s := vol.At(p[0], p[1], p[2])
				slice[idx] = s
				opaque[idx] = tf.Alpha[s] != 0
				idx++
			}
		}
		rows := enc.rows[k*nj : (k+1)*nj]
		for j := 0; j < nj; j++ {
			row := &rows[j]
			// Stored iff any opaque voxel within the in-plane 3x3
			// neighbourhood.
			stored := func(i int) bool {
				for dj := -1; dj <= 1; dj++ {
					jj := j + dj
					if jj < 0 || jj >= nj {
						continue
					}
					for di := -1; di <= 1; di++ {
						ii := i + di
						if ii >= 0 && ii < ni && opaque[jj*ni+ii] {
							return true
						}
					}
				}
				return false
			}
			inRun, lo := false, 0
			flush := func(hi int) {
				row.intervals = append(row.intervals, runInterval{lo, hi})
				row.vals = append(row.vals, slice[j*ni+lo:j*ni+hi]...)
				enc.stored += int64(hi - lo)
			}
			for i := 0; i < ni; i++ {
				st := stored(i)
				if st && !inRun {
					lo, inRun = i, true
				}
				if !st && inRun {
					flush(i)
					inRun = false
				}
			}
			if inRun {
				flush(ni)
			}
		}
		for j := 0; j < nj; j++ {
			enc.mixed[k*nj+j], enc.flat[k*nj+j] = cutRuns(slice, opaque, ni, nj, j, nil, nil)
		}
	}
	return enc
}

// StoredFraction reports the stored voxels across all three encodings as a
// fraction of three full copies — the compression the encoding achieves.
// It encodes any axis not yet used.
func (rv *RLEVolume) StoredFraction() float64 {
	var stored int64
	for a := range rv.axes {
		stored += rv.axis(a).stored
	}
	total := 3 * rv.dims[0] * rv.dims[1] * rv.dims[2]
	return float64(stored) / float64(total)
}

// slabScratch is the per-call working set of the slab renderers, recycled
// across frames: one materialized slice and, for RenderSlabAccel, what
// sliceRuns derives per slice — the occupancy mask, the two run tables (one
// after the other in runs) and the arenas their intervals are cut from.
type slabScratch struct {
	slice       []uint8
	occ         []bool
	runs        [][]runInterval
	mixed, flat []runInterval
}

var slabScratchPool = sync.Pool{New: func() any { return new(slabScratch) }}

// getSlabScratch takes a scratch from the pool with slice sized for the
// view; the caller puts it back.
func getSlabScratch(v *View) *slabScratch {
	sc := slabScratchPool.Get().(*slabScratch)
	if cap(sc.slice) < v.ni*v.nj {
		sc.slice = make([]uint8, v.ni*v.nj)
	}
	sc.slice = sc.slice[:v.ni*v.nj]
	return sc
}

// RenderSlabRLE renders slices [kLo, kHi) of the view from the encoded
// volume, byte-identical to RenderSlab. It requires the view to come from
// a renderer bound to the same volume dimensions and the same transfer
// function the encoding was built with, and falls back to the plain path
// when the transfer function's transparent set is not downward closed.
func (r *Renderer) RenderSlabRLE(rv *RLEVolume, v *View, kLo, kHi int) (*raster.Image, error) {
	if rv.tf != r.TF {
		return nil, fmt.Errorf("shearwarp: RLE volume was encoded with a different transfer function")
	}
	if rv.dims != [3]int{r.Vol.NX, r.Vol.NY, r.Vol.NZ} {
		return nil, fmt.Errorf("shearwarp: RLE volume dims %v do not match renderer volume", rv.dims)
	}
	if !rv.skippable {
		return r.RenderSlab(v, kLo, kHi)
	}
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return nil, fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	enc := rv.axis(v.perm[2])
	out := raster.New(v.wi, v.hi)
	sc := getSlabScratch(v)
	defer slabScratchPool.Put(sc)
	slice := sc.slice
	for k := kLo; k < kHi; k++ {
		// Factor flips only the principal axis, so a flipped view reads the
		// same rows in reverse slice order.
		ko := k
		if v.flip[2] {
			ko = v.nk - 1 - k
		}
		// Materialize the slice's stored voxels. The rest keeps whatever the
		// pooled buffer held: the two run tables are exact, so no sample
		// reads it (cutRuns).
		rows := enc.rows[ko*v.nj : (ko+1)*v.nj]
		for j := range rows {
			row := &rows[j]
			off := 0
			for _, iv := range row.intervals {
				off += copy(slice[j*v.ni+iv.lo:j*v.ni+iv.hi], row.vals[off:])
			}
		}
		r.compositeRuns(out, v, k, slice, enc.mixed[ko*v.nj:(ko+1)*v.nj], enc.flat[ko*v.nj:(ko+1)*v.nj], v.frame())
	}
	return out, nil
}
