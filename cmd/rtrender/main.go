// rtrender runs the full parallel volume rendering pipeline — partition,
// shear-warp render, image composition, warp — on the in-process fabric and
// writes the final image.
//
// Usage:
//
//	rtrender -dataset head -p 8 -method nrt:3 -codec trle -o head.png
//	rtrender -dataset engine -serial -o ref.pgm        # serial reference
//	rtrender -volfile scan.rtvol -tf 60:220:245:120    # render a saved volume
//	rtrender -dataset brain -frames 12 -o orbit.png    # camera orbit series
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"rtcomp/internal/codec"
	"rtcomp/internal/core"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/stats"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/trace"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

func main() {
	var (
		dataset  = flag.String("dataset", "engine", "phantom dataset: engine, head, brain")
		volN     = flag.Int("voln", 128, "phantom resolution")
		volfile  = flag.String("volfile", "", "render a saved .rtvol volume instead of a phantom")
		tfSpec   = flag.String("tf", "", "transfer function window lo:hi:value:alpha (default: dataset preset)")
		p        = flag.Int("p", 8, "processor (goroutine rank) count")
		method   = flag.String("method", "nrt:4", "composition method: bs, pp, ds, tree, radixk, nrt:N, 2nrt:N, rt:N")
		cdc      = flag.String("codec", "trle", "wire codec: "+strings.Join(codec.Names(), ", ")+" (a block the codec cannot shrink ships raw)")
		size     = flag.Int("size", 512, "final image edge in pixels")
		yaw      = flag.Float64("yaw", 0.35, "camera yaw in radians")
		pitch    = flag.Float64("pitch", 0.2, "camera pitch in radians")
		out      = flag.String("o", "out.png", "output file (.png or .pgm)")
		accel    = flag.Bool("accel", false, "enable the opacity-coherence render acceleration")
		rle      = flag.Bool("rle", false, "render from a run-length encoded classified volume (fastest)")
		part     = flag.String("partition", "1d", "render-stage partitioning: 1d (depth slabs) or 2d (image tiles)")
		frames   = flag.Int("frames", 1, "render a yaw orbit of this many frames (out-NNN suffixes)")
		serial   = flag.Bool("serial", false, "render serially instead (reference image)")
		traceOut = flag.String("trace-out", "", "write per-rank telemetry as Chrome trace JSON (and print the per-step table)")
	)
	flag.Parse()

	m, err := core.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	// Telemetry stays nil (free) unless a trace was asked for.
	var rec *telemetry.Recorder
	if *traceOut != "" {
		rec = telemetry.New()
	}
	cfg := core.Config{
		Dataset:    *dataset,
		VolumeN:    *volN,
		Camera:     shearwarp.Camera{Yaw: *yaw, Pitch: *pitch},
		Width:      *size,
		Height:     *size,
		P:          *p,
		Method:     m,
		Codec:      *cdc,
		Accelerate: *accel,
		RLE:        *rle,
		Partition:  *part,
		Telemetry:  rec,
	}

	var vol *volume.Volume
	var tf *xfer.Func
	if *volfile != "" {
		vol, err = volume.Load(*volfile)
		if err != nil {
			fatal(err)
		}
		tf = xfer.ForDataset(*dataset)
	}
	if *tfSpec != "" {
		tf, err = xfer.Parse(*tfSpec)
		if err != nil {
			fatal(err)
		}
	}

	for f := 0; f < *frames; f++ {
		frameCfg := cfg
		if *frames > 1 {
			frameCfg.Camera.Yaw = *yaw + 2*math.Pi*float64(f)/float64(*frames)
		}
		img, err := renderOne(frameCfg, vol, tf, *serial, *frames == 1)
		if err != nil {
			fatal(err)
		}
		path := *out
		if *frames > 1 {
			path = framePath(*out, f)
		}
		if err := writeImage(img, path); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%dx%d, %.0f%% blank)\n", path, img.W, img.H, 100*img.BlankFraction())
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(telemetry.StepTable(rec.Summaries(*p)))
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		werr := trace.WriteChromeSpans(f, rec.Spans())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wrote %s (%d spans) — open in chrome://tracing or ui.perfetto.dev\n", *traceOut, len(rec.Spans()))
	}
}

// renderOne renders a single frame, printing the stage report for single-
// frame runs.
func renderOne(cfg core.Config, vol *volume.Volume, tf *xfer.Func, serial, verbose bool) (*raster.Image, error) {
	if serial {
		if vol != nil || tf != nil {
			return nil, fmt.Errorf("-serial supports phantom datasets only")
		}
		return core.RenderSerial(cfg)
	}
	var rep *core.FrameReport
	var err error
	switch {
	case vol != nil:
		if tf == nil {
			tf = xfer.ForDataset(cfg.Dataset)
		}
		rep, err = core.RenderParallelVolume(cfg, vol, tf)
	case tf != nil:
		var v *volume.Volume
		if v, err = core.Phantom(cfg.Dataset, cfg.VolumeN); err != nil {
			return nil, err
		}
		rep, err = core.RenderParallelVolume(cfg, v, tf)
	default:
		rep, err = core.RenderParallel(cfg)
	}
	if err != nil {
		return nil, err
	}
	if verbose {
		var raw, wire, over int64
		for _, r := range rep.Reports {
			raw += r.RawBytes
			wire += r.WireBytes
			over += r.OverPixels
		}
		fmt.Printf("dataset=%s p=%d method=%s codec=%s partition=%s\n",
			cfg.Dataset, cfg.P, cfg.Method, cfg.Codec, cfg.Partition)
		fmt.Printf("render (slowest rank): %v\n", rep.RenderTime)
		fmt.Printf("composite+gather wall: %v\n", rep.CompositeAll)
		fmt.Printf("warp:                  %v\n", rep.WarpTime)
		fmt.Printf("composition traffic:   %s raw -> %s on the wire, %d over-pixels\n",
			stats.IBytes(raw), stats.IBytes(wire), over)
	}
	return rep.Image, nil
}

// framePath inserts a frame number before the extension:
// orbit.png -> orbit-007.png.
func framePath(base string, f int) string {
	ext := ""
	stem := base
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		stem, ext = base[:i], base[i:]
	}
	return fmt.Sprintf("%s-%03d%s", stem, f, ext)
}

func writeImage(img *raster.Image, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".pgm") {
		_, err = f.Write(img.EncodePGM())
		return err
	}
	return img.WritePNG(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrender:", err)
	os.Exit(1)
}
