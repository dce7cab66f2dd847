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

// frame is the whole intermediate image as a clip rectangle.
func (v *View) frame() raster.Rect { return raster.Rect{X1: v.wi, Y1: v.hi} }

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
	sc := getSlabScratch(v)
	defer slabScratchPool.Put(sc)
	for k := kLo; k < kHi; k++ {
		r.extractSlice(v, k, sc.slice)
		r.compositeSlice(out, v, k, sc.slice, nil, v.frame())
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
	sc := getSlabScratch(v)
	defer slabScratchPool.Put(sc)
	for k := kLo; k < kHi; k++ {
		// Skip the (costly) slice extraction when the slice's row footprint
		// misses the band entirely.
		_, vj := v.sliceOffset(k)
		if v0 := int(math.Floor(vj)); max(v0, y0) > min(v0+v.nj, y1-1) {
			continue
		}
		r.extractSlice(v, k, sc.slice)
		r.compositeSlice(out, v, k, sc.slice, nil, raster.Rect{Y0: y0, X1: v.wi, Y1: y1})
	}
	return nil
}

// RenderIntermediate renders the full intermediate (sheared, unwarped)
// image.
func (r *Renderer) RenderIntermediate(v *View) (*raster.Image, error) {
	return r.RenderSlab(v, 0, v.nk)
}

// bilinear samples the slice buffer at fractional (i, j); samples outside
// the slice report no contribution. It defines the resampling arithmetic:
// rowSampler.span calls it on the slice's one-texel border and spells the
// same operations out everywhere else. The product is rounded before it is
// accumulated (the conversion forbids fusing the two) so that the two
// spellings cannot drift apart on a toolchain that fuses multiply-adds.
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
			acc += float64(w * float64(slice[jj*ni+ii]))
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
	// A sample is non-blank only if one of its four taps is, so only samples
	// inside the non-blank bounding rectangle grown by one texel can write a
	// pixel (the second texel is clipLine's slack). Each output row maps to
	// the line u(x) = pu*x + qu, v(x) = pv*x + qv through the intermediate
	// image; clipLine solves it for the x-interval that can land in that
	// rectangle, and the exact per-pixel arithmetic runs inside the interval
	// alone.
	br := inter.BoundingRect()
	if br.Empty() {
		return out, nil
	}
	uMin, uMax := float64(br.X0-2), float64(br.X1+1)
	vMin, vMax := float64(br.Y0-2), float64(br.Y1+1)
	pu, pv, ex0 := d/det, -c/det, cx-float64(w)/2
	for y := 0; y < h; y++ {
		ey := float64(y) - float64(h)/2 + cyv
		xLo, xHi := clipLine(0, w-1, pu, (d*ex0-b*ey)/det+v.oi+ci, uMin, uMax)
		xLo, xHi = clipLine(xLo, xHi, pv, (a*ey-c*ex0)/det+v.oj+cj, vMin, vMax)
		for x := xLo; x <= xHi; x++ {
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

// clipLine narrows the pixel interval [xLo, xHi] to the x whose coordinate
// p*x + q can lie in [lo, hi]. The caller's [lo, hi] already carries a
// texel of slack beyond what a sample needs, which absorbs any rounding
// difference between this line and the per-pixel arithmetic whatever the
// slope; the two extra pixels on each side cover the floor and the ceiling.
func clipLine(xLo, xHi int, p, q, lo, hi float64) (int, int) {
	if p == 0 {
		if q < lo || q > hi {
			return 0, -1
		}
		return xLo, xHi
	}
	x0, x1 := (lo-q)/p, (hi-q)/p
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	// Compare as floats first: the quotients may exceed the int range.
	if x0 > float64(xHi) || x1 < float64(xLo) {
		return 0, -1
	}
	if x0-2 > float64(xLo) {
		xLo = int(x0) - 2
	}
	if x1+2 < float64(xHi) {
		xHi = int(x1) + 3
	}
	return xLo, xHi
}

// bilinearVA samples a value+alpha image with alpha-weighted bilinear
// interpolation. Four taps holding one pixel are that pixel, by the
// identity of the slice kernel (kernel.go) applied to both quotients, and
// four blank taps are no sample; both are settled before any weight is
// computed.
func bilinearVA(im *raster.Image, x, y float64) (v, a uint8, ok bool) {
	if x <= -1 || y <= -1 || x >= float64(im.W) || y >= float64(im.H) {
		return 0, 0, false
	}
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	if x0 >= 0 && y0 >= 0 && x0+1 < im.W && y0+1 < im.H {
		o := (y0*im.W + x0) * raster.BytesPerPixel
		p, q := im.Pix[o:o+4:o+4], im.Pix[o+im.W*raster.BytesPerPixel:][:4:4]
		if pa := p[1]; pa == p[3] && pa == q[1] && pa == q[3] {
			if pa == 0 {
				return 0, 0, false
			}
			if pv := p[0]; pv == p[2] && pv == q[0] && pv == q[2] {
				return pv, pa, true
			}
		}
	}
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
