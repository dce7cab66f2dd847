package shearwarp

import (
	"fmt"

	"rtcomp/internal/raster"
)

// RenderTile renders every slice of the volume restricted to the
// intermediate-image rectangle [x0,x1) x [y0,y1) — the unit of work of a
// 2-D image-space partition: each processor owns one tile of the
// intermediate image and composites the full depth for it, so partial
// images have disjoint footprints. The output image has the view's full
// intermediate size with canonical blanks outside the tile.
func (r *Renderer) RenderTile(v *View, x0, y0, x1, y1 int) (*raster.Image, error) {
	out := raster.New(v.wi, v.hi)
	if err := r.RenderTileInto(v, x0, y0, x1, y1, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderTileInto is RenderTile into a caller's image of the view's
// intermediate size, blank at least inside the tile.
func (r *Renderer) RenderTileInto(v *View, x0, y0, x1, y1 int, out *raster.Image) error {
	if x0 < 0 || y0 < 0 || x1 > v.wi || y1 > v.hi || x0 > x1 || y0 > y1 {
		return fmt.Errorf("shearwarp: tile [%d,%d)x[%d,%d) outside %dx%d intermediate",
			x0, x1, y0, y1, v.wi, v.hi)
	}
	if err := v.checkOut(out); err != nil {
		return err
	}
	sc := getSlabScratch(v)
	defer slabScratchPool.Put(sc)
	for k := 0; k < v.nk; k++ {
		r.extractSlice(v, k, sc.slice)
		r.compositeSlice(out, v, k, sc.slice, nil, raster.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1})
	}
	return nil
}
