// Compression: the paper's Section 3 in running code — the 16 TRLE
// templates, the Figure 4 example with its exact 18:5 ratio, and the codecs
// applied to a real rendered partial image.
package main

import (
	"fmt"
	"log"

	"rtcomp/internal/codec"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

func main() {
	// The template table of Figure 3.
	fmt.Println("the 16 TRLE templates (2x2 pixels, # = non-blank):")
	for id, tpl := range codec.TemplateTable() {
		row := func(a, b bool) string {
			s := ""
			for _, x := range []bool{a, b} {
				if x {
					s += "#"
				} else {
					s += "."
				}
			}
			return s
		}
		fmt.Printf("  %2d: %s/%s", id, row(tpl[0][0], tpl[0][1]), row(tpl[1][0], tpl[1][1]))
		if (id+1)%4 == 0 {
			fmt.Println()
		}
	}

	// Figure 4: the two scanlines, RLE vs TRLE.
	m := codec.NewMask(12, 2)
	for y, runs := range [2][]uint8{{1, 2, 1, 1, 1, 3, 1, 1, 1}, {1, 2, 1, 1, 1, 2, 2, 1, 1}} {
		x := 0
		set := false
		for _, r := range runs {
			for j := uint8(0); j < r; j++ {
				m.Set(x, y, set)
				x++
			}
			set = !set
		}
	}
	rle := 0
	for y := 0; y < 2; y++ {
		row := make([]bool, 12)
		copy(row, m.Bits[y*12:(y+1)*12])
		runs, _ := codec.EncodeMaskRLE(row)
		rle += len(runs)
	}
	trle := codec.EncodeMaskTRLE(m)
	fmt.Printf("\nFigure 4: RLE %d bytes, TRLE codes %v (%d bytes) -> ratio %d:%d\n\n",
		rle, trle, len(trle), rle, len(trle))

	// A real partial image: one slab of the engine phantom.
	r := &shearwarp.Renderer{Vol: volume.Engine(96), TF: xfer.ForDataset("engine")}
	view, err := r.Factor(shearwarp.Camera{Yaw: 0.35, Pitch: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	partial, err := r.RenderSlab(view, view.NK()*3/8, view.NK()/2)
	if err != nil {
		log.Fatal(err)
	}
	// Real CT scans carry per-pixel acquisition noise; the synthetic
	// phantom is unrealistically flat, which would gift plain RLE long
	// identical-value runs.
	partial.AddValueNoise(6, 42)
	raw := len(partial.Pix)
	fmt.Printf("one rendered engine slab (%dx%d, %.0f%% blank):\n",
		partial.W, partial.H, 100*partial.BlankFraction())
	for _, name := range []string{"rle", "trle"} {
		c, _ := codec.ByName(name)
		enc := c.EncodeAppend(nil, partial.Pix)
		dec, err := c.DecodeInto(nil, enc, partial.NPixels())
		if err != nil {
			log.Fatal(err)
		}
		ok := "round trip ok"
		for i := range dec {
			if dec[i] != partial.Pix[i] {
				ok = "ROUND TRIP FAILED"
				break
			}
		}
		fmt.Printf("  %-5s %7d -> %6d bytes (%.2fx), %s\n", name, raw, len(enc),
			codec.Ratio(raw, len(enc)), ok)
	}
}
