// Package shearwarp implements a from-scratch shear-warp factorization
// volume renderer (Lacroute & Levoy) — the render stage of the paper's
// pipeline. The viewing transformation is factored into a shear of the
// volume slices along the principal viewing axis plus a 2-D warp of the
// composited intermediate image:
//
//	render = warp_2D( composite_front_to_back( sheared slices ) )
//
// Slices are resampled bilinearly, classified through a transfer function
// (post-classification), and composited with "over". For parallel
// rendering, a rank renders a contiguous slab of slices into a partial
// intermediate image; compositing slabs front-to-back reproduces the full
// intermediate image exactly, which is precisely the workload the image
// composition stage consumes.
//
// An independent orthographic ray-caster (raycast.go) serves as the
// correctness cross-check.
package shearwarp

import (
	"fmt"
	"math"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// Camera is an orthographic view: yaw about the volume's Y axis applied
// after pitch about X, in radians. The viewer looks along the rotated +Z.
type Camera struct {
	Yaw, Pitch float64
}

// Renderer binds a volume to a transfer function.
type Renderer struct {
	Vol *volume.Volume
	TF  *xfer.Func
}

// View is a factored viewing transformation: the axis permutation, shear
// coefficients, intermediate image geometry and the warp matrix.
type View struct {
	// perm[c] is the object axis used for intermediate axis c (0=i, 1=j,
	// 2=k, the principal axis); flip[c] reverses it. Factor only ever
	// flips the principal axis — the encoded-volume renderer relies on it.
	perm [3]int
	flip [3]bool
	// ni, nj, nk are the volume dims in the permuted frame.
	ni, nj, nk int
	// si, sj are the shear coefficients per slice.
	si, sj float64
	// oi, oj place all sheared slices at non-negative offsets.
	oi, oj float64
	// wi, hi are the intermediate image dimensions.
	wi, hi int
	// rp is the view rotation expressed in the permuted+flipped frame.
	rp [3][3]float64
}

// NK reports the number of slices along the compositing axis; slice 0 is
// closest to the viewer.
func (v *View) NK() int { return v.nk }

// IntermediateSize reports the intermediate image dimensions.
func (v *View) IntermediateSize() (w, h int) { return v.wi, v.hi }

// rotation builds the camera matrix: rows are the eye axes in object
// coordinates (e = R p).
func (c Camera) rotation() [3][3]float64 {
	cy, sy := math.Cos(c.Yaw), math.Sin(c.Yaw)
	cp, sp := math.Cos(c.Pitch), math.Sin(c.Pitch)
	// R = Ry(yaw) * Rx(pitch), applied to object points.
	ry := [3][3]float64{{cy, 0, sy}, {0, 1, 0}, {-sy, 0, cy}}
	rx := [3][3]float64{{1, 0, 0}, {0, cp, -sp}, {0, sp, cp}}
	var r [3][3]float64
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for k := 0; k < 3; k++ {
				r[a][b] += ry[a][k] * rx[k][b]
			}
		}
	}
	return r
}

// Factor decomposes the camera into the shear-warp view.
func (r *Renderer) Factor(cam Camera) (*View, error) {
	rot := cam.rotation()
	// View direction in object space: rays travel along the third row.
	d := [3]float64{rot[2][0], rot[2][1], rot[2][2]}
	// Principal axis: the largest |component|.
	k := 0
	for a := 1; a < 3; a++ {
		if math.Abs(d[a]) > math.Abs(d[k]) {
			k = a
		}
	}
	if d[k] == 0 {
		return nil, fmt.Errorf("shearwarp: degenerate view direction")
	}
	v := &View{}
	v.perm = [3]int{(k + 1) % 3, (k + 2) % 3, k}
	// Flip the principal axis so rays travel toward +k (slice 0 in front).
	v.flip[2] = d[k] < 0

	dims := [3]int{r.Vol.NX, r.Vol.NY, r.Vol.NZ}
	v.ni, v.nj, v.nk = dims[v.perm[0]], dims[v.perm[1]], dims[v.perm[2]]

	// Rotation in the permuted+flipped frame: column c' of rp is the
	// (possibly negated) column perm[c'] of rot.
	for a := 0; a < 3; a++ {
		for c := 0; c < 3; c++ {
			val := rot[a][v.perm[c]]
			if v.flip[c] {
				val = -val
			}
			v.rp[a][c] = val
		}
	}
	dk := v.rp[2][2]
	v.si = -v.rp[2][0] / dk
	v.sj = -v.rp[2][1] / dk

	span := float64(v.nk - 1)
	v.oi = math.Max(0, -v.si*span)
	v.oj = math.Max(0, -v.sj*span)
	v.wi = v.ni + int(math.Ceil(math.Abs(v.si)*span)) + 1
	v.hi = v.nj + int(math.Ceil(math.Abs(v.sj)*span)) + 1
	return v, nil
}

// voxel reads the volume in the permuted+flipped frame.
func (r *Renderer) voxel(v *View, i, j, k int) uint8 {
	var p [3]int
	coords := [3]int{i, j, k}
	lims := [3]int{v.ni, v.nj, v.nk}
	for c := 0; c < 3; c++ {
		x := coords[c]
		if v.flip[c] {
			x = lims[c] - 1 - x
		}
		p[v.perm[c]] = x
	}
	return r.Vol.At(p[0], p[1], p[2])
}

// extractSlice copies slice k into a contiguous ni x nj scalar buffer.
func (r *Renderer) extractSlice(v *View, k int, buf []uint8) {
	idx := 0
	for j := 0; j < v.nj; j++ {
		for i := 0; i < v.ni; i++ {
			buf[idx] = r.voxel(v, i, j, k)
			idx++
		}
	}
}

// RenderSlab renders slices [kLo, kHi) front-to-back into a partial
// intermediate image of the view's intermediate size, with canonical blank
// pixels outside the slab's footprint. Compositing the slab images of a
// partition of [0, NK) in slab order reproduces RenderIntermediate exactly.
func (r *Renderer) RenderSlab(v *View, kLo, kHi int) (*raster.Image, error) {
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return nil, fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	out := raster.New(v.wi, v.hi)
	slice := make([]uint8, v.ni*v.nj)
	for k := kLo; k < kHi; k++ {
		r.extractSlice(v, k, slice)
		ui := v.oi + v.si*float64(k)
		vj := v.oj + v.sj*float64(k)
		u0 := int(math.Floor(ui))
		v0 := int(math.Floor(vj))
		for v1 := v0; v1 <= v0+v.nj; v1++ {
			if v1 < 0 || v1 >= v.hi {
				continue
			}
			jf := float64(v1) - vj
			for u1 := u0; u1 <= u0+v.ni; u1++ {
				if u1 < 0 || u1 >= v.wi {
					continue
				}
				// Early termination: a fully opaque accumulation cannot
				// change, so skipping is exact.
				pi := (v1*v.wi + u1) * raster.BytesPerPixel
				if out.Pix[pi+1] == 255 {
					continue
				}
				ifl := float64(u1) - ui
				s, ok := bilinear(slice, v.ni, v.nj, ifl, jf)
				if !ok {
					continue
				}
				val, a := r.TF.Classify(s)
				if a == 0 {
					continue
				}
				overPixel(out.Pix[pi:pi+2:pi+2], val, a)
			}
		}
	}
	return out, nil
}

// RenderSlabRows renders the slab's contribution to intermediate-image rows
// [y0, y1) into out (which must have the view's intermediate size). It is
// the band-restricted form of RenderSlab for incremental rendering: every
// pixel of the band still accumulates its slices in front-to-back k order,
// so rendering a partition of [0, hi) band by band reproduces RenderSlab
// exactly — and a band is final as soon as its call returns, which is what
// lets the pipelined compositor start on early tiles while later bands are
// still rendering.
func (r *Renderer) RenderSlabRows(v *View, kLo, kHi, y0, y1 int, out *raster.Image) error {
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	if y0 < 0 || y1 > v.hi || y0 > y1 {
		return fmt.Errorf("shearwarp: row band [%d,%d) outside [0,%d)", y0, y1, v.hi)
	}
	if out.W != v.wi || out.H != v.hi {
		return fmt.Errorf("shearwarp: output image is %dx%d, view wants %dx%d",
			out.W, out.H, v.wi, v.hi)
	}
	slice := make([]uint8, v.ni*v.nj)
	for k := kLo; k < kHi; k++ {
		ui := v.oi + v.si*float64(k)
		vj := v.oj + v.sj*float64(k)
		u0 := int(math.Floor(ui))
		v0 := int(math.Floor(vj))
		// The slice's row footprint clipped to the band; skip the (costly)
		// slice extraction when the footprint misses the band entirely.
		vLo, vHi := v0, v0+v.nj
		if vLo < y0 {
			vLo = y0
		}
		if vHi > y1-1 {
			vHi = y1 - 1
		}
		if vLo > vHi {
			continue
		}
		r.extractSlice(v, k, slice)
		for v1 := vLo; v1 <= vHi; v1++ {
			jf := float64(v1) - vj
			for u1 := u0; u1 <= u0+v.ni; u1++ {
				if u1 < 0 || u1 >= v.wi {
					continue
				}
				pi := (v1*v.wi + u1) * raster.BytesPerPixel
				if out.Pix[pi+1] == 255 {
					continue
				}
				ifl := float64(u1) - ui
				s, ok := bilinear(slice, v.ni, v.nj, ifl, jf)
				if !ok {
					continue
				}
				val, a := r.TF.Classify(s)
				if a == 0 {
					continue
				}
				overPixel(out.Pix[pi:pi+2:pi+2], val, a)
			}
		}
	}
	return nil
}

// RenderIntermediate renders the full intermediate (sheared, unwarped)
// image.
func (r *Renderer) RenderIntermediate(v *View) (*raster.Image, error) {
	return r.RenderSlab(v, 0, v.nk)
}

// overPixel composites the classified sample behind the accumulated pixel:
// acc = acc over sample (front-to-back accumulation).
func overPixel(acc []uint8, bv, ba uint8) {
	fa := acc[1]
	if fa == 255 {
		return
	}
	if fa == 0 {
		acc[0], acc[1] = bv, ba
		return
	}
	fv := acc[0]
	inv := uint32(255 - fa)
	ca := uint32(fa)*255 + inv*uint32(ba)
	cv := uint32(fv)*uint32(fa)*255 + inv*uint32(ba)*uint32(bv)
	a := (ca + 127) / 255
	var val uint32
	if ca > 0 {
		val = (cv + ca/2) / ca
	}
	acc[0], acc[1] = uint8(val), uint8(a)
}

// bilinear samples the slice buffer at fractional (i, j); samples outside
// the slice report no contribution.
func bilinear(slice []uint8, ni, nj int, i, j float64) (uint8, bool) {
	if i <= -1 || j <= -1 || i >= float64(ni) || j >= float64(nj) {
		return 0, false
	}
	i0 := int(math.Floor(i))
	j0 := int(math.Floor(j))
	fi := i - float64(i0)
	fj := j - float64(j0)
	var acc, wsum float64
	for dj := 0; dj <= 1; dj++ {
		for di := 0; di <= 1; di++ {
			ii, jj := i0+di, j0+dj
			if ii < 0 || jj < 0 || ii >= ni || jj >= nj {
				continue
			}
			w := (1 - math.Abs(float64(di)-fi)) * (1 - math.Abs(float64(dj)-fj))
			acc += w * float64(slice[jj*ni+ii])
			wsum += w
		}
	}
	if wsum == 0 {
		return 0, false
	}
	return uint8(acc/wsum + 0.5), true
}

// Warp resamples the composited intermediate image into the final w x h
// frame with the 2-D warp matrix of the factorization.
func (r *Renderer) Warp(v *View, inter *raster.Image, w, h int) (*raster.Image, error) {
	if inter.W != v.wi || inter.H != v.hi {
		return nil, fmt.Errorf("shearwarp: intermediate image is %dx%d, view wants %dx%d",
			inter.W, inter.H, v.wi, v.hi)
	}
	// Eye coords: e = rp * (p - c). With i = (u-oi) - si*k the k terms
	// vanish, leaving ex = rp00*(u-oi-ci) + rp01*(v-oj-cj) - rp02*ck.
	a, b := v.rp[0][0], v.rp[0][1]
	c, d := v.rp[1][0], v.rp[1][1]
	det := a*d - b*c
	if math.Abs(det) < 1e-12 {
		return nil, fmt.Errorf("shearwarp: singular warp matrix")
	}
	ci := float64(v.ni-1) / 2
	cj := float64(v.nj-1) / 2
	ck := float64(v.nk-1) / 2
	cx := v.rp[0][2] * ck
	cyv := v.rp[1][2] * ck
	out := raster.New(w, h)
	for y := 0; y < h; y++ {
		ey := float64(y) - float64(h)/2 + cyv
		for x := 0; x < w; x++ {
			ex := float64(x) - float64(w)/2 + cx
			// Invert the 2x2 system for (u-oi-ci, v-oj-cj).
			du := (d*ex - b*ey) / det
			dv := (a*ey - c*ex) / det
			u := du + v.oi + ci
			vv := dv + v.oj + cj
			val, al, ok := bilinearVA(inter, u, vv)
			if ok && al > 0 {
				out.Pix[(y*w+x)*raster.BytesPerPixel] = val
				out.Pix[(y*w+x)*raster.BytesPerPixel+1] = al
			}
		}
	}
	return out, nil
}

// bilinearVA samples a value+alpha image with alpha-weighted bilinear
// interpolation.
func bilinearVA(im *raster.Image, x, y float64) (v, a uint8, ok bool) {
	if x <= -1 || y <= -1 || x >= float64(im.W) || y >= float64(im.H) {
		return 0, 0, false
	}
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	var accV, accA, wsum float64
	for dy := 0; dy <= 1; dy++ {
		for dx := 0; dx <= 1; dx++ {
			xx, yy := x0+dx, y0+dy
			if xx < 0 || yy < 0 || xx >= im.W || yy >= im.H {
				continue
			}
			w := (1 - math.Abs(float64(dx)-fx)) * (1 - math.Abs(float64(dy)-fy))
			pv, pa := im.At(xx, yy)
			accV += w * float64(pv) * float64(pa) / 255
			accA += w * float64(pa)
			wsum += w
		}
	}
	if wsum == 0 || accA == 0 {
		return 0, 0, false
	}
	return uint8(accV*255/accA + 0.5), uint8(accA/wsum + 0.5), true
}

// Render runs the full pipeline — factor, composite all slices, warp —
// producing a w x h final image.
func (r *Renderer) Render(cam Camera, w, h int) (*raster.Image, error) {
	v, err := r.Factor(cam)
	if err != nil {
		return nil, err
	}
	inter, err := r.RenderIntermediate(v)
	if err != nil {
		return nil, err
	}
	return r.Warp(v, inter, w, h)
}
