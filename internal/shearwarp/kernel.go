package shearwarp

import (
	"math"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/xfer"
)

// The renderer has one resampling loop. Every render entry point — plain
// slab, row band, tile, run-skipping and encoded-volume — hands its slices
// to compositeSlice (the two that have cut the slice into runs, to the
// compositeRuns under it), which clips the slice's sheared footprint to the
// caller's rectangle and runs rowSampler.span over each row, or over each
// run of the row that needs resampling and rowSampler.flat over each run
// that holds one scalar.
//
// The loop has two paths and they are the same arithmetic. bilinear is the
// definition: it tests every tap against the slice bounds. The interior
// path runs when all four taps are inside the slice, so nothing is skipped,
// and spells out bilinear's float64 operations in bilinear's order; only
// what is constant along a row (the row index, its fraction and the two row
// weights) is hoisted. The column fraction is not hoisted: float64(u) - ui
// rounds per pixel, so neither its floor nor its fraction advance by a
// fixed step. TestRowKernelMatchesBilinear pins the equality.
//
// One identity shortens both paths: a sample whose taps all hold the same
// scalar s is s. acc is s times wsum up to a relative error of a few ulps
// (every term is non-negative, so nothing cancels), and uint8(x + 0.5)
// returns s for any x within 0.5 of it. span tests the four taps before it
// interpolates them, and flat composites a run the caller already knows to
// be constant without loading a tap at all. TestUniformQuadIsExact pins the
// identity over every scalar and a grid of weights.

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

// setRow points the sampler at output row px, whose slice coordinate jf lies
// inside the slice's footprint (-1, nj).
func (s *rowSampler) setRow(px []uint8, jf float64) {
	s.px, s.jf = px, jf
	s.row0, s.row1 = nil, nil
	if j0 := int(math.Floor(jf)); j0 >= 0 && j0+1 < s.nj {
		fj := jf - float64(j0)
		s.wj0, s.wj1 = 1-math.Abs(0-fj), 1-math.Abs(1-fj)
		s.row0 = s.slice[j0*s.ni : (j0+1)*s.ni]
		s.row1 = s.slice[(j0+1)*s.ni : (j0+2)*s.ni]
	}
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
			t00, t10, t01, t11 := row0[i0], row0[i0+1], row1[i0], row1[i0+1]
			if t00 == t10 && t00 == t01 && t00 == t11 {
				sample = t00
			} else {
				fi := i - float64(i0)
				wi0, wi1 := 1-math.Abs(0-fi), 1-math.Abs(1-fi)
				w := wi0 * wj0
				acc := float64(w * float64(t00))
				wsum := w
				w = wi1 * wj0
				acc += float64(w * float64(t10))
				wsum += w
				w = wi0 * wj1
				acc += float64(w * float64(t01))
				wsum += w
				w = wi1 * wj1
				acc += float64(w * float64(t11))
				wsum += w
				sample = uint8(acc/wsum + 0.5)
			}
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

// flat composites scalar sample at columns [uLo, uHi] of the row: span for a
// run whose every tap holds that one scalar.
func (s *rowSampler) flat(uLo, uHi int, sample uint8) {
	val, a := s.tf.Value[sample], s.tf.Alpha[sample]
	if a == 0 {
		return
	}
	px := s.px
	// Neighbouring pixels of a constant run have often accumulated the same
	// colour; the blend of equal inputs is computed once.
	var lastV, lastA, outV, outA uint8
	for u := uLo; u <= uHi; u++ {
		o := u * raster.BytesPerPixel
		p := px[o : o+2 : o+2]
		switch fa := p[1]; fa {
		case 255:
		case 0:
			p[0], p[1] = val, a
		default:
			if fa != lastA || p[0] != lastV {
				lastV, lastA = p[0], fa
				outV, outA = compose.OverBlend(lastV, fa, val, a)
			}
			p[0], p[1] = outV, outA
		}
	}
}

// sliceOffset reports where slice k's voxel (0, 0) lands in the
// intermediate image.
func (v *View) sliceOffset(k int) (ui, vj float64) {
	return v.oi + v.si*float64(k), v.oj + v.sj*float64(k)
}

// firstPixel reports the least pixel column whose slice coordinate along i,
// float64(u) - ui as span rounds it, is at least c. base is ceil(ui): in
// exact arithmetic the answer is c + base, and rounding can only pull the
// pixel before it up onto c. A run of columns [lo, hi) therefore owns
// exactly the pixels [firstPixel(lo), firstPixel(hi)): the ones whose
// samples span floors into the run.
func firstPixel(c, base int, ui float64) int {
	u := c + base
	if float64(u-1)-ui >= float64(c) {
		u--
	}
	return u
}

// compositeSlice composites slice k (materialized in slice, ni x nj) into
// the accumulation image, restricted to the intermediate-image rectangle
// clip, resampling every pixel of the footprint (nil runs) or only the
// pixels of the listed column runs.
func (r *Renderer) compositeSlice(out *raster.Image, v *View, k int, slice []uint8, runs [][]runInterval, clip raster.Rect) {
	r.compositeRuns(out, v, k, slice, runs, nil, clip)
}

// compositeRuns is compositeSlice with a second table of runs that need no
// resampling. runs[j] and flat[j] list columns c, the floor of a sample's
// slice coordinate along i, for samples between slice rows j and j+1: a
// column in neither list is not visited, so together they must cover every
// sample that can classify non-transparent (visiting a transparent one is
// harmless); every voxel a sample of a flat[j] run touches must hold the
// scalar of the run's first voxel in row j.
func (r *Renderer) compositeRuns(out *raster.Image, v *View, k int, slice []uint8, runs, flat [][]runInterval, clip raster.Rect) {
	ui, vj := v.sliceOffset(k)
	u0, v0 := int(math.Floor(ui)), int(math.Floor(vj))
	uLo, uHi := max(u0, clip.X0), min(u0+v.ni, clip.X1-1)
	base := int(math.Ceil(ui))
	s := rowSampler{tf: r.TF, slice: slice, ni: v.ni, nj: v.nj, ui: ui}
	for v1 := max(v0, clip.Y0); v1 <= min(v0+v.nj, clip.Y1-1); v1++ {
		jf := float64(v1) - vj
		if jf <= -1 || jf >= float64(v.nj) {
			continue // the row samples nothing of the slice
		}
		px := out.Pix[v1*v.wi*raster.BytesPerPixel : (v1+1)*v.wi*raster.BytesPerPixel]
		if runs == nil {
			s.setRow(px, jf)
			s.span(uLo, uHi)
			continue
		}
		// jf in (-1, 0) samples row 0 alone, whose voxels are among those
		// of the pair (0, 1): that pair's runs stand for it.
		j := max(int(math.Floor(jf)), 0)
		resample, constant := runs[j], []runInterval(nil)
		if flat != nil {
			constant = flat[j]
		}
		if len(resample)+len(constant) == 0 {
			continue
		}
		s.setRow(px, jf)
		for _, run := range resample {
			s.span(max(firstPixel(run.lo, base, ui), uLo), min(firstPixel(run.hi, base, ui)-1, uHi))
		}
		for _, run := range constant {
			s.flat(max(firstPixel(run.lo, base, ui), uLo), min(firstPixel(run.hi, base, ui)-1, uHi),
				slice[j*v.ni+run.lo])
		}
	}
}
