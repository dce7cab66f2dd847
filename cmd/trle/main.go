// trle demonstrates the compression codecs on real rendered partial
// images: it renders one rank's partial image of a phantom, encodes it with
// RLE and TRLE, verifies the round trips, and prints the sizes — the
// per-transfer view of the paper's Section 3.
//
//	trle -dataset engine -p 8 -rank 3
//	trle -dataset head -p 32 -all          # table over all ranks
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"rtcomp/internal/codec"
	"rtcomp/internal/experiments"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/stats"
)

func main() {
	var (
		dataset = flag.String("dataset", "engine", "phantom dataset")
		volN    = flag.Int("voln", 128, "phantom resolution")
		p       = flag.Int("p", 8, "processor count the image is partitioned for")
		rank    = flag.Int("rank", 0, "which rank's partial image to compress")
		size    = flag.Int("size", 512, "partial image edge in pixels")
		all     = flag.Bool("all", false, "print a table over every rank")
	)
	flag.Parse()

	o := experiments.DefaultOptions()
	o.Dataset = *dataset
	o.VolumeN = *volN
	o.Width, o.Height = *size, *size
	o.Camera = shearwarp.Camera{Yaw: 0.35, Pitch: 0.2}
	layers, err := experiments.Partials(o, *p)
	if err != nil {
		fatal(err)
	}

	report := func(r int, im *raster.Image) []string {
		raw := len(im.Pix)
		row := []string{fmt.Sprint(r), fmt.Sprintf("%.2f", im.BlankFraction()), stats.IBytes(int64(raw))}
		for _, name := range []string{"rle", "trle"} {
			c, _ := codec.ByName(name)
			enc := c.EncodeAppend(nil, im.Pix)
			dec, err := c.DecodeInto(nil, enc, im.NPixels())
			if err != nil || !bytes.Equal(dec, im.Pix) {
				fatal(fmt.Errorf("%s round trip failed on rank %d: %v", name, r, err))
			}
			row = append(row, stats.IBytes(int64(len(enc))), fmt.Sprintf("%.2f", codec.Ratio(raw, len(enc))))
		}
		return row
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Codec comparison — %s, P=%d, %dx%d partial images", *dataset, *p, *size, *size),
		Headers: []string{"rank", "blank", "raw", "rle", "rle ratio", "trle", "trle ratio"},
	}
	if *all {
		for r, im := range layers {
			t.Add(report(r, im)...)
		}
	} else {
		if *rank < 0 || *rank >= len(layers) {
			fatal(fmt.Errorf("rank %d out of range [0,%d)", *rank, len(layers)))
		}
		t.Add(report(*rank, layers[*rank])...)
	}
	t.Note("round trips verified byte-for-byte; blank = fraction of transparent pixels")
	fmt.Println(t.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trle:", err)
	os.Exit(1)
}
