package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// Engine is the long-lived frame engine: it owns everything a frame does
// not change, so a frame pays for its pixels and nothing else. Three tables,
// each filled on first use and read-only afterwards:
//
//   - scenes, per (dataset, resolution): the volume, its transfer function
//     and the run-length encoded classified volume;
//   - resolved block counts, per (method kind, P, pixel bucket): what
//     Method.ResolveN picked for an ":auto" method, planned for the
//     intermediate image the ranks composite, its pixel count rounded down
//     to a power of two (pixelBucket);
//   - schedules, per (method kind, N, P): the validated *schedule.Schedule,
//     whose own memo of rank plans and tile spans therefore stays warm.
//
// Nothing is ever evicted, because the key spaces are bounded by what a
// deployment can ask for: three datasets, eight method kinds, N ≤ 32, a
// fixed P in rtserve, and at most one bucket per bit of the pixel count
// (two for the engine phantom's orbit at 96³). Beside the tables, two
// bounded stores keep what finished frames leave behind for the next: their
// rasters (rasterStore) and their in-process meshes (meshStore). The zero
// value is ready to use, and an Engine may render any number of frames
// concurrently.
type Engine struct {
	scenes  memo[sceneKey, *Scene]
	autoN   memo[autoKey, int]
	scheds  memo[schedKey, *schedule.Schedule]
	rasters rasterStore
	meshes  meshStore
}

type sceneKey struct {
	dataset string
	n       int
}

type autoKey struct {
	kind      string
	p, bucket int
}

// pixelBucket is the block-count table's key for an image of apix pixels:
// apix rounded down to a power of two. The intermediate image's size follows
// the camera, so keying by the exact count would let a client's yaw and
// pitch grow the table; a bucket holds the table to one entry per bit, and N
// is planned for the bucket itself, so which count of a bucket comes first
// cannot change what any later frame composites with.
func pixelBucket(apix int) int {
	if apix < 1 {
		return 0
	}
	return 1 << (bits.Len(uint(apix)) - 1)
}

type schedKey struct {
	kind string
	n, p int
}

// maxMemoN is the largest block count the engine keeps a schedule for — the
// bound of model.AutoN's search. A larger N can only come from a caller
// spelling it out, and caller input must not grow the engine's tables, so
// such a schedule is built for its frame and dropped.
const maxMemoN = 32

// memo is a keyed build-once table: the first caller of a key builds its
// value while later callers of that key wait for it, and callers of other
// keys are not held up. A failed build is not kept — its key came from a
// caller's input, and bad input must not accumulate.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (t *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	t.mu.Lock()
	c := t.m[k]
	if c == nil {
		if t.m == nil {
			t.m = make(map[K]*memoCell[V])
		}
		c = new(memoCell[V])
		t.m[k] = c
	}
	t.mu.Unlock()
	c.once.Do(func() {
		if c.v, c.err = build(); c.err != nil {
			t.mu.Lock()
			delete(t.m, k)
			t.mu.Unlock()
		}
	})
	return c.v, c.err
}

func (t *memo[K, V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Scene is one volume bound to its classification, with the run-length
// encoded classified volume derived from the pair. It is immutable once
// built (the encoded volume fills in each principal axis on first use, under
// its own sync.Once), so frames share it freely.
type Scene struct {
	r   shearwarp.Renderer
	rle *shearwarp.RLEVolume
}

func newScene(vol *volume.Volume, tf *xfer.Func) *Scene {
	return &Scene{r: shearwarp.Renderer{Vol: vol, TF: tf}, rle: shearwarp.NewRLEVolume(vol, tf)}
}

// scene returns the engine's scene for a phantom dataset at cubic
// resolution n, building it on first use.
func (e *Engine) scene(dataset string, n int) (*Scene, error) {
	return e.scenes.get(sceneKey{dataset, n}, func() (*Scene, error) {
		vol, err := Phantom(dataset, n)
		if err != nil {
			return nil, err
		}
		return newScene(vol, xfer.ForDataset(dataset)), nil
	})
}

// schedule resolves a method to its composition schedule for p ranks
// compositing an image of apix pixels: an automatic block count is resolved
// once per (kind, p, pixelBucket(apix)), a schedule is built once per
// (kind, N, p).
func (e *Engine) schedule(m Method, p, apix int) (*schedule.Schedule, error) {
	if !m.rotateTiling() {
		m.N = 0 // the other kinds ignore N: one schedule per kind
	} else if m.N == 0 {
		bucket := pixelBucket(apix)
		n, err := e.autoN.get(autoKey{m.Kind, p, bucket}, func() (int, error) {
			resolved, err := m.ResolveN(p, bucket)
			return resolved.N, err
		})
		if err != nil {
			return nil, err
		}
		m.N = n
	}
	if m.N > maxMemoN {
		return m.Schedule(p)
	}
	return e.scheds.get(schedKey{m.Kind, m.N, p}, func() (*schedule.Schedule, error) {
		return m.Schedule(p)
	})
}

// Frame is one frame, resolved and ready to render: everything its ranks
// share. It is the product of the package's only frame preamble
// (Engine.prepare) and is not modified afterwards.
type Frame struct {
	cfg     Config
	scene   *Scene
	view    *shearwarp.View
	sched   *schedule.Schedule
	codec   codec.Codec
	rasters *rasterStore // the engine's: where the frame's rasters come from and go back to
	meshes  *meshStore   // the engine's: where the frame's in-process mesh comes from
}

// Prepare resolves a configuration into a renderable frame: scene, view,
// method, schedule and codec. Every error a caller's input can cause —
// unknown dataset, method or codec, a method that cannot run on P ranks —
// surfaces here, before any rank starts.
func (e *Engine) Prepare(cfg Config) (*Frame, error) {
	scene, err := e.scene(cfg.Dataset, cfg.VolumeN)
	if err != nil {
		return nil, err
	}
	return e.prepare(cfg, scene)
}

// prepare is Prepare over an explicit scene.
func (e *Engine) prepare(cfg Config, scene *Scene) (*Frame, error) {
	view, err := scene.r.Factor(cfg.Camera)
	if err != nil {
		return nil, err
	}
	iw, ih := view.IntermediateSize()
	sched, err := e.schedule(cfg.Method, cfg.P, iw*ih)
	if err != nil {
		return nil, err
	}
	cdc, err := codec.ByName(cfg.Codec)
	if err != nil {
		return nil, err
	}
	return &Frame{cfg: cfg, scene: scene, view: view, sched: sched, codec: cdc, rasters: &e.rasters, meshes: &e.meshes}, nil
}

// partials renders this rank's partial image under the configured
// partitioning scheme, into a raster from the engine's store.
func (f *Frame) partials(rank int) (*raster.Image, error) {
	out := f.rasters.get(f.view.IntermediateSize())
	switch f.cfg.Partition {
	case "", "1d":
		slab, err := partition.Slab1D(f.view.NK(), f.cfg.P, rank)
		if err != nil {
			return nil, err
		}
		return out, f.renderSlab(slab.Lo, slab.Hi, out)
	case "2d":
		tiles, err := partition.Grid2D(out.W, out.H, f.cfg.P)
		if err != nil {
			return nil, err
		}
		tl := tiles[rank]
		return out, f.scene.r.RenderTileInto(f.view, tl.X0, tl.Y0, tl.X1, tl.Y1, out)
	}
	return nil, fmt.Errorf("core: unknown partition scheme %q", f.cfg.Partition)
}

// renderSlab dispatches on the configured acceleration.
func (f *Frame) renderSlab(lo, hi int, out *raster.Image) error {
	switch {
	case f.cfg.RLE:
		return f.scene.r.RenderSlabRLEInto(f.scene.rle, f.view, lo, hi, out)
	case f.cfg.Accelerate:
		return f.scene.r.RenderSlabAccelInto(f.view, lo, hi, out)
	}
	return f.scene.r.RenderSlabRows(f.view, lo, hi, 0, out.H, out)
}

// warp resamples the gathered intermediate image into the final frame, a
// raster from the engine's store. A rank the gather left empty-handed (every
// rank but the root) gets nil.
func (f *Frame) warp(rank int, inter *raster.Image) (*raster.Image, error) {
	if inter == nil {
		return nil, nil
	}
	tel := f.cfg.Telemetry
	defer tel.End(tel.Begin(rank, telemetry.PhaseWarp, telemetry.CatCompute, telemetry.StepNone))
	out := f.rasters.get(f.cfg.Width, f.cfg.Height)
	if err := f.scene.r.WarpInto(f.view, inter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// rank runs one rank's share of the frame over its communicator: render the
// partial image, composite it with the frame's schedule. It returns what the
// gather left on this rank (nil everywhere but the root, where it is a raster
// from the engine's store), the rank's composition report and how long its
// render stage took.
func (f *Frame) rank(c comm.Comm) (*raster.Image, *compositor.Report, time.Duration, error) {
	t0 := time.Now()
	partial, src, err := f.startPartials(c.Rank())
	if err != nil {
		return nil, nil, 0, err
	}
	rendered := time.Since(t0)
	copts, err := f.compositeOptions()
	if err != nil {
		return nil, nil, 0, err
	}
	copts.Pipeline.Source = src
	var dst *raster.Image
	if c.Rank() == copts.GatherRoot {
		dst = f.rasters.get(partial.W, partial.H)
	}
	inter, rep, err := compositor.RunInto(c, f.sched, partial, dst, copts)
	// RunInto has joined everything it started, so nothing reads the partial
	// any more — unless it is streaming (src != nil): its render goroutine may
	// still be writing rows a failed run never waited for. Nothing writes dst
	// any more either.
	if src == nil {
		f.rasters.put(partial)
	}
	if err != nil {
		if dst != nil {
			f.rasters.put(dst)
		}
		return nil, nil, 0, err
	}
	return inter, rep, renderElapsed(src, rendered), nil
}

// Render runs the frame on the in-process fabric: P goroutine ranks each
// render their share, composite with the frame's schedule, and rank 0 warps
// the gathered intermediate image. The ranks run on a mesh from the engine's
// store (meshStore).
func (f *Frame) Render() (*FrameReport, error) {
	return f.render(nil)
}

// render is Render; gaveUp, when non-nil, tells whether the caller stopped
// waiting for the frame, whose mesh then goes back to no store.
func (f *Frame) render(gaveUp *atomic.Bool) (*FrameReport, error) {
	out := &FrameReport{Reports: make([]*compositor.Report, f.cfg.P)}
	var mu sync.Mutex
	compositeStart := time.Now()
	err := f.meshes.run(f.cfg.P, gaveUp, func(c comm.Comm) error {
		img, rep, rendered, err := f.rank(c)
		if err != nil {
			return err
		}
		mu.Lock()
		out.Reports[c.Rank()] = rep
		if img != nil {
			out.Intermediate = img
		}
		if rendered > out.RenderTime {
			out.RenderTime = rendered
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.CompositeAll = time.Since(compositeStart)
	t0 := time.Now()
	if out.Image, err = f.warp(0, out.Intermediate); err != nil {
		return nil, err
	}
	out.WarpTime = time.Since(t0)
	out.rasters = f.rasters
	return out, nil
}

// RenderCtx is Render bounded by a context: a context deadline caps the
// composition's RecvTimeout (so the frame cannot outlive the request that
// asked for it), and a cancellation abandons the wait — the worker ranks
// drain on their own, bounded by those receive deadlines. Deadline reporting
// does not depend on the runtime delivering the context timer on time: when
// the deadline capped RecvTimeout, a receive-deadline failure is the
// request's own deadline manifesting inside the fabric, and any result
// arriving at or after the wall-clock deadline — the capped receive timer
// can beat the context timer by a sliver, and a starved timer can leave
// ctx.Err() nil long past expiry — reports context.DeadlineExceeded. The
// report of a frame it gave up on is dropped, never released to the engine's
// store: the goroutine that finishes such a frame cannot tell whether its
// caller is still reading. Its mesh is closed, not kept.
func (f *Frame) RenderCtx(ctx context.Context) (*FrameReport, error) {
	var deadline time.Time
	capped := false
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= 0 {
			// ctx.Err() is still nil until the runtime delivers the timer.
			return nil, fmt.Errorf("core: deadline passed before the render began: %w",
				context.DeadlineExceeded)
		}
		if f.cfg.RecvTimeout <= 0 || f.cfg.RecvTimeout > remain {
			bounded := *f
			bounded.cfg.RecvTimeout = remain
			f, capped = &bounded, true
		}
		deadline = dl
	}
	type result struct {
		rep *FrameReport
		err error
	}
	ch := make(chan result, 1)
	gaveUp := new(atomic.Bool)
	f.meshes.running.Add(1)
	go func() {
		defer f.meshes.running.Done()
		rep, err := f.render(gaveUp)
		ch <- result{rep, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil && capped && errors.Is(res.err, comm.ErrDeadline) {
			return nil, fmt.Errorf("core: render deadline exhausted: %w (%v)",
				context.DeadlineExceeded, res.err)
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("core: render outlived its deadline: %w",
				context.DeadlineExceeded)
		}
		return res.rep, res.err
	case <-ctx.Done():
		gaveUp.Store(true)
		return nil, ctx.Err()
	}
}
