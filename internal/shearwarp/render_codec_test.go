package shearwarp

import (
	"bytes"
	"math/rand"
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// A rendered slab image split into row bands must encode, decode and
// composite identically to the whole image — including when a codec run
// crosses the band edge, where the encoder is forced to cut one run into
// two. This is exactly what the banded renderer feeds the pipelined
// compositor: each band's span is encoded independently, and the receive
// path must reassemble the same bytes the one-shot image would produce.
func TestBandSplitEncodingExact(t *testing.T) {
	r := testRenderer("engine", 24)
	v, err := r.Factor(Camera{Yaw: 0.35, Pitch: -0.25})
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.RenderSlab(v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	w, h := img.W, img.H
	npix := w * h

	// Split at a row boundary that sits inside a run of identical pixels,
	// so the band encoders must cut that run in two. Rendered images have
	// blank margins, so such a row always exists; failing to find one means
	// the fixture no longer exercises the case this test is about.
	split := -1
	for y := 1; y < h; y++ {
		b := y * w * raster.BytesPerPixel
		if img.Pix[b-2] == img.Pix[b] && img.Pix[b-1] == img.Pix[b+1] {
			split = y
			break
		}
	}
	if split < 0 {
		t.Fatal("no codec run crosses any row boundary in the rendered slab")
	}
	cut := split * w * raster.BytesPerPixel
	cutPix := split * w

	back := raster.RandomImage(rand.New(rand.NewSource(7)), w, h, 0.3)

	for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
		encFull := cdc.EncodeAppend(nil, img.Pix)
		encA := cdc.EncodeAppend(nil, img.Pix[:cut])
		encB := cdc.EncodeAppend(nil, img.Pix[cut:])

		// Band decodes must concatenate to the whole-image decode.
		decFull, err := cdc.DecodeInto(nil, encFull, npix)
		if err != nil {
			t.Fatalf("%s: full decode: %v", cdc.Name(), err)
		}
		if !bytes.Equal(decFull, img.Pix) {
			t.Fatalf("%s: full decode does not round-trip", cdc.Name())
		}
		decA, err := cdc.DecodeInto(nil, encA, cutPix)
		if err != nil {
			t.Fatalf("%s: band A decode: %v", cdc.Name(), err)
		}
		decB, err := cdc.DecodeInto(nil, encB, npix-cutPix)
		if err != nil {
			t.Fatalf("%s: band B decode: %v", cdc.Name(), err)
		}
		if !bytes.Equal(decA, img.Pix[:cut]) || !bytes.Equal(decB, img.Pix[cut:]) {
			t.Fatalf("%s: band decodes do not round-trip across the split run", cdc.Name())
		}

		// Fused band composition must be byte-identical to whole-block
		// fused composition, in both layer orders.
		for _, encFront := range []bool{true, false} {
			whole := back.Clone()
			if _, err := cdc.DecodeOver(whole.Pix, encFull, npix, encFront); err != nil {
				t.Fatalf("%s: whole DecodeOver: %v", cdc.Name(), err)
			}
			banded := back.Clone()
			if _, err := cdc.DecodeOver(banded.Pix[:cut], encA, cutPix, encFront); err != nil {
				t.Fatalf("%s: band A DecodeOver: %v", cdc.Name(), err)
			}
			if _, err := cdc.DecodeOver(banded.Pix[cut:], encB, npix-cutPix, encFront); err != nil {
				t.Fatalf("%s: band B DecodeOver: %v", cdc.Name(), err)
			}
			if !raster.Equal(whole, banded) {
				t.Fatalf("%s encFront=%v: banded fused composite differs from whole (maxdiff %d)",
					cdc.Name(), encFront, raster.MaxDiff(whole, banded))
			}

			// And both must match the unfused reference.
			ref := back.Clone()
			if encFront {
				compose.OverU8(ref.Pix, img.Pix, ref.Pix)
			} else {
				compose.OverU8(ref.Pix, ref.Pix, img.Pix)
			}
			if !raster.Equal(whole, ref) {
				t.Fatalf("%s encFront=%v: fused composite differs from OverU8 reference (maxdiff %d)",
					cdc.Name(), encFront, raster.MaxDiff(whole, ref))
			}
		}
	}
}
