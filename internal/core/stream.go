// Streaming-render support for the pipelined compositor: a rank's partial
// image is rendered in row bands and published incrementally, so the
// compositor starts exchanging early tiles while later rows are still being
// rendered — the render/composition overlap of the per-tile pipeline.
package core

import (
	"sync"
	"time"

	"rtcomp/internal/compositor"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/telemetry"
)

// stripSource is a compositor.Source over a row-banded render in progress:
// rows are published monotonically, and a tile's pixels are final once every
// row its span touches has been published. Safe for the compositor's
// concurrent WaitTile calls.
type stripSource struct {
	wi   int // intermediate image width (pixels per row)
	mu   sync.Mutex
	cond *sync.Cond
	rows int // rows rendered and published so far
	err  error
	t0   time.Time
	dt   time.Duration // render wall time, set when the last row publishes
}

func newStripSource(wi int) *stripSource {
	s := &stripSource{wi: wi, t0: time.Now()}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// advance publishes rows [rows, rows+n) as final.
func (s *stripSource) advance(n int, last bool) {
	s.mu.Lock()
	s.rows += n
	if last {
		s.dt = time.Since(s.t0)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// fail poisons the source; every waiter unblocks with the error.
func (s *stripSource) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.dt = time.Since(s.t0)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// WaitTile implements compositor.Source: it blocks until every row the
// tile's pixel span touches has been rendered.
func (s *stripSource) WaitTile(_ int, span raster.Span) error {
	need := (span.Hi + s.wi - 1) / s.wi
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.rows < need && s.err == nil {
		s.cond.Wait()
	}
	return s.err
}

// elapsed reports the render wall time (so far, if still in flight).
func (s *stripSource) elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dt > 0 {
		return s.dt
	}
	return time.Since(s.t0)
}

// startPartials begins rendering this rank's partial image. When the
// pipelined compositor can consume rows incrementally — 1-D slab
// partitioning on the plain (non-accelerated) renderer, which has a
// band-exact row-restricted kernel — rendering continues in a background
// goroutine and the returned Source gates each tile on its rows. Otherwise
// the image is complete on return and the Source is nil; the pipeline still
// overlaps composition across tiles, just not with the render.
func (f *Frame) startPartials(rank int) (*raster.Image, compositor.Source, error) {
	cfg := f.cfg
	stream := cfg.Pipeline && !cfg.RLE && !cfg.Accelerate &&
		(cfg.Partition == "" || cfg.Partition == "1d")
	if !stream {
		render := cfg.Telemetry.Begin(rank, telemetry.PhaseRender, telemetry.CatCompute, telemetry.StepNone)
		img, err := f.partials(rank)
		cfg.Telemetry.End(render)
		return img, nil, err
	}
	view := f.view
	slabs, err := partition.Slabs1D(view.NK(), cfg.P)
	if err != nil {
		return nil, nil, err
	}
	kLo, kHi := slabs[rank].Lo, slabs[rank].Hi
	wi, hi := view.IntermediateSize()
	img := raster.New(wi, hi)
	src := newStripSource(wi)
	// One band per tile keeps publication granularity aligned with what the
	// compositor can consume.
	step := (hi + f.sched.Tiles - 1) / f.sched.Tiles
	if step < 1 {
		step = 1
	}
	go func() {
		defer cfg.Telemetry.End(cfg.Telemetry.Begin(rank, telemetry.PhaseRender, telemetry.CatCompute, telemetry.StepNone))
		for y0 := 0; y0 < hi; y0 += step {
			y1 := y0 + step
			if y1 > hi {
				y1 = hi
			}
			if err := f.scene.r.RenderSlabRows(view, kLo, kHi, y0, y1, img); err != nil {
				src.fail(err)
				return
			}
			src.advance(y1-y0, y1 == hi)
		}
	}()
	return img, src, nil
}

// renderElapsed resolves the render duration of a startPartials call.
func renderElapsed(src compositor.Source, fallback time.Duration) time.Duration {
	if ss, ok := src.(*stripSource); ok {
		return ss.elapsed()
	}
	return fallback
}
