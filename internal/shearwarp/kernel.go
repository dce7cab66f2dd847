package shearwarp

import (
	"math"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/xfer"
)

// The renderer has one resampling loop. Every render entry point — plain
// slab, row band, tile, run-skipping and encoded-volume — hands its slices
// to compositeSlice, which clips the slice's sheared footprint to the
// caller's rectangle and runs rowSampler.span over each row (or over each
// active run of the row).
//
// The loop has two paths and they are the same arithmetic. bilinear is the
// definition: it tests every tap against the slice bounds. The interior
// path runs when all four taps are inside the slice, so nothing is skipped,
// and spells out bilinear's float64 operations in bilinear's order; only
// what is constant along a row (the row index, its fraction and the two row
// weights) is hoisted. The column fraction is not hoisted: float64(u) - ui
// rounds per pixel, so neither its floor nor its fraction advance by a
// fixed step. TestRowKernelMatchesBilinear pins the equality.

// rowSampler resamples one slice along one intermediate-image row.
type rowSampler struct {
	tf     *xfer.Func
	slice  []uint8
	ni, nj int
	ui, jf float64 // slice offset along i; the row's slice coordinate along j
	px     []uint8 // the output row
	// The two sampled slice rows and their weights; nil on a border row,
	// where one of them does not exist.
	row0, row1 []uint8
	wj0, wj1   float64
}

// setRow points the sampler at output row px, whose slice coordinate is jf.
// It reports false when the row lies outside the slice.
func (s *rowSampler) setRow(px []uint8, jf float64) bool {
	if jf <= -1 || jf >= float64(s.nj) {
		return false
	}
	s.px, s.jf = px, jf
	s.row0, s.row1 = nil, nil
	if j0 := int(math.Floor(jf)); j0 >= 0 && j0+1 < s.nj {
		fj := jf - float64(j0)
		s.wj0, s.wj1 = 1-math.Abs(0-fj), 1-math.Abs(1-fj)
		s.row0 = s.slice[j0*s.ni : (j0+1)*s.ni]
		s.row1 = s.slice[(j0+1)*s.ni : (j0+2)*s.ni]
	}
	return true
}

// span composites the slice's samples at columns [uLo, uHi] of the row
// behind what the row has accumulated (front-to-back).
func (s *rowSampler) span(uLo, uHi int) {
	tf, px, ui := s.tf, s.px, s.ui
	row0, row1, wj0, wj1 := s.row0, s.row1, s.wj0, s.wj1
	last := len(row0) - 1 // -1 on a border row: every sample takes the border path
	for u := uLo; u <= uHi; u++ {
		o := u * raster.BytesPerPixel
		p := px[o : o+2 : o+2]
		// Early termination: a fully opaque accumulation cannot change, so
		// skipping is exact.
		fa := p[1]
		if fa == 255 {
			continue
		}
		var sample uint8
		i := float64(u) - ui
		// i >= 0 makes truncation the floor.
		if i0 := int(i); i >= 0 && i0 < last {
			fi := i - float64(i0)
			wi0, wi1 := 1-math.Abs(0-fi), 1-math.Abs(1-fi)
			w := wi0 * wj0
			acc := float64(w * float64(row0[i0]))
			wsum := w
			w = wi1 * wj0
			acc += float64(w * float64(row0[i0+1]))
			wsum += w
			w = wi0 * wj1
			acc += float64(w * float64(row1[i0]))
			wsum += w
			w = wi1 * wj1
			acc += float64(w * float64(row1[i0+1]))
			wsum += w
			sample = uint8(acc/wsum + 0.5)
		} else {
			var ok bool
			if sample, ok = bilinear(s.slice, s.ni, s.nj, i, s.jf); !ok {
				continue
			}
		}
		a := tf.Alpha[sample]
		if a == 0 {
			continue
		}
		if fa == 0 {
			p[0], p[1] = tf.Value[sample], a
		} else {
			p[0], p[1] = compose.OverBlend(p[0], fa, tf.Value[sample], a)
		}
	}
}

// sliceOffset reports where slice k's voxel (0, 0) lands in the
// intermediate image.
func (v *View) sliceOffset(k int) (ui, vj float64) {
	return v.oi + v.si*float64(k), v.oj + v.sj*float64(k)
}

// compositeSlice composites slice k (materialized in slice, ni x nj) into
// the accumulation image, restricted to the intermediate-image rectangle
// clip. A non-nil runs table restricts each row further to its active
// column runs: runs[j] lists the columns a sample between slice rows j and
// j+1 must visit. Visiting extra (transparent) samples is harmless, so run
// lists may be supersets of the true active set.
func (r *Renderer) compositeSlice(out *raster.Image, v *View, k int, slice []uint8, runs [][]runInterval, clip raster.Rect) {
	ui, vj := v.sliceOffset(k)
	u0, v0 := int(math.Floor(ui)), int(math.Floor(vj))
	uLo, uHi := max(u0, clip.X0), min(u0+v.ni, clip.X1-1)
	s := rowSampler{tf: r.TF, slice: slice, ni: v.ni, nj: v.nj, ui: ui}
	for v1 := max(v0, clip.Y0); v1 <= min(v0+v.nj, clip.Y1-1); v1++ {
		jf := float64(v1) - vj
		if !s.setRow(out.Pix[v1*v.wi*raster.BytesPerPixel:(v1+1)*v.wi*raster.BytesPerPixel], jf) {
			continue
		}
		if runs == nil {
			s.span(uLo, uHi)
			continue
		}
		// jf in (-1, 0) samples row 0 alone; row 0's runs for the pair
		// (0, 1) are a superset of what row 0 alone needs.
		for _, run := range runs[max(int(math.Floor(jf)), 0)] {
			// Active floor(i) in [run.lo, run.hi): sample u with
			// i = u - ui in [run.lo, run.hi+1).
			s.span(max(int(math.Ceil(float64(run.lo)+ui)), uLo),
				min(int(math.Floor(float64(run.hi)+ui)), uHi))
		}
	}
}
