package core

import (
	"fmt"
	"math"

	"rtcomp/internal/raster"
)

// OrbitReport is the outcome of a multi-frame orbit render.
type OrbitReport struct {
	Frames []*raster.Image
	// PerFrame holds the per-frame pipeline reports.
	PerFrame []*FrameReport
}

// RenderOrbit renders nframes of a full yaw orbit (the configured camera's
// yaw advanced by 2*pi/nframes per frame, pitch held) on one Engine, so the
// volume, its classification, the encoded volume (Config.RLE) and the
// composition schedule are built once and shared by every frame — the
// animation loop of an interactive viewer. Every frame runs the full
// parallel pipeline: partition, render, composite, warp.
func RenderOrbit(cfg Config, nframes int) (*OrbitReport, error) {
	if nframes < 1 {
		return nil, fmt.Errorf("core: RenderOrbit needs at least one frame, got %d", nframes)
	}
	var eng Engine
	out := &OrbitReport{
		Frames:   make([]*raster.Image, nframes),
		PerFrame: make([]*FrameReport, nframes),
	}
	baseYaw := cfg.Camera.Yaw
	for f := 0; f < nframes; f++ {
		frameCfg := cfg
		frameCfg.Camera.Yaw = baseYaw + 2*math.Pi*float64(f)/float64(nframes)
		frame, err := eng.Prepare(frameCfg)
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", f, err)
		}
		rep, err := frame.Render()
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", f, err)
		}
		out.Frames[f] = rep.Image
		out.PerFrame[f] = rep
	}
	return out, nil
}
