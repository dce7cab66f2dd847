package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
)

// retained reports what the store holds: rasters, their pixel bytes as the
// store counts them, and the same bytes summed afresh.
func (s *rasterStore) retained() (n, counted, summed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, im := range s.free[:s.n] {
		summed += len(im.Pix)
	}
	return s.n, s.bytes, summed
}

// recycleConfigs is the matrix the recycling tests cycle through: two
// datasets × three frame sizes × two methods × both partitions × both
// executors, 48 configurations whose partials and frames come in six sizes.
func recycleConfigs() []Config {
	var cfgs []Config
	for _, dataset := range []string{"engine", "head"} {
		for _, size := range []int{64, 200, 384} {
			for _, method := range []string{"nrt:auto", "2nrt:4"} {
				for _, part := range []string{"1d", "2d"} {
					for _, pipe := range []bool{false, true} {
						cfg := testConfig(4, method)
						cfg.Dataset, cfg.Width, cfg.Height = dataset, size, size
						cfg.Partition, cfg.Pipeline = part, pipe
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	return cfgs
}

// oneShot renders cfg the way a caller without an engine does, with the
// plain renderer: the reference every recycled frame must match.
func oneShot(t *testing.T, cfg Config) *FrameReport {
	t.Helper()
	cfg.RLE, cfg.Accelerate = false, false
	rep, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Frames on one engine render into each other's returned rasters — partials
// after compositor.Run, warped frames after Release — and stay byte-identical
// to fresh one-shot renders: 240 frames from four goroutines over the 48
// configurations, each rendered from the encoded volume, with the
// accelerated renderer or with the plain one (which streams under the
// pipelined executor, so its partial must never be recycled). Run under
// -race as well.
func TestEngineRecyclesRasters(t *testing.T) {
	cfgs := recycleConfigs()
	want := make([]*FrameReport, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = oneShot(t, cfg)
	}
	const goroutines, frames = 4, 240
	var eng Engine
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < frames && errs[g] == nil; i += goroutines {
				errs[g] = recycledFrame(&eng, cfgs[i%len(cfgs)], i/len(cfgs)%3, want[i%len(cfgs)])
				if errs[g] != nil {
					errs[g] = fmt.Errorf("frame %d: %w", i, errs[g])
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n, counted, summed := eng.rasters.retained(); n == 0 || counted != summed || counted > storeBytes {
		t.Fatalf("store holds %d rasters of %d bytes (counted %d), want some, at most %d bytes",
			n, summed, counted, storeBytes)
	}
}

// recycledFrame renders cfg on eng with renderer mode 0 (encoded volume), 1
// (accelerated) or 2 (plain), checks it against want and releases it.
func recycledFrame(eng *Engine, cfg Config, mode int, want *FrameReport) error {
	cfg.RLE, cfg.Accelerate = mode == 0, mode == 1
	f, err := eng.Prepare(cfg)
	if err != nil {
		return err
	}
	rep, err := f.Render()
	if err != nil {
		return err
	}
	if !raster.Equal(rep.Intermediate, want.Intermediate) || !raster.Equal(rep.Image, want.Image) {
		return fmt.Errorf("%s %dx%d %s %s pipeline=%v mode %d: differs from the one-shot frame (maxdiff %d)",
			cfg.Dataset, cfg.Width, cfg.Height, cfg.Method, cfg.Partition, cfg.Pipeline, mode,
			raster.MaxDiff(rep.Image, want.Image))
	}
	rep.Release()
	if rep.Image != nil {
		return errors.New("Release left the image in the report")
	}
	rep.Release() // a second Release is a no-op, not a second put
	return nil
}

// Whatever sizes callers ask for — 60 of them, from rtserve's smallest to its
// largest — the store keeps at most storeSlots rasters and storeBytes bytes,
// and its count of the bytes is right.
func TestEngineStoreBounded(t *testing.T) {
	var eng Engine
	for i := 0; i < 60; i++ {
		cfg := testConfig(4, "nrt:4")
		cfg.RLE = true
		cfg.Width = 16 + i*(2048-16)/59
		cfg.Height = cfg.Width
		f, err := eng.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Render()
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
		n, counted, summed := eng.rasters.retained()
		if n > storeSlots || counted > storeBytes || counted != summed {
			t.Fatalf("after a %d² frame the store holds %d rasters of %d bytes (counted %d), want at most %d of %d",
				cfg.Width, n, summed, counted, storeSlots, storeBytes)
		}
	}
	if n, _, _ := eng.rasters.retained(); n == 0 {
		t.Fatal("the store kept nothing")
	}
	// Many tiny rasters are bounded by the slot count.
	var s rasterStore
	for i := 0; i < 3*storeSlots; i++ {
		s.put(raster.New(1, 1+i))
	}
	if n, counted, summed := s.retained(); n != storeSlots || counted != summed {
		t.Fatalf("after %d puts the store holds %d rasters (%d bytes, counted %d), want %d",
			3*storeSlots, n, summed, counted, storeSlots)
	}
	if im := s.get(1, 3*storeSlots); im.H != 3*storeSlots {
		t.Fatalf("get(1, %d) returned a %dx%d raster", 3*storeSlots, im.W, im.H)
	}
}

// RenderCtx frames whose deadline expires mid-frame leave their rasters to
// the collector: 100 of them, half streaming their partials, interleaved
// with normal frames on the same engine, which stay byte-identical to their
// one-shot renders while the abandoned ranks may still be running.
func TestEngineAbandonedFramesDoNotRecycle(t *testing.T) {
	normal := testConfig(4, "nrt:auto")
	normal.Dataset, normal.Width, normal.Height, normal.RLE = "head", 200, 200, true
	streaming := normal
	streaming.RLE, streaming.Pipeline = false, true // the plain 1-D renderer streams under the pipeline
	want := oneShot(t, normal)
	var eng Engine
	expired := 0
	for i := 0; i < 100; i++ {
		cfg := normal
		if i%2 == 1 {
			cfg = streaming
		}
		f, err := eng.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(20+i%10*50)*time.Microsecond)
		if _, err := f.RenderCtx(ctx); errors.Is(err, context.DeadlineExceeded) {
			expired++
		}
		cancel()

		cfg = normal
		cfg.Pipeline = i%3 == 0
		if f, err = eng.Prepare(cfg); err != nil {
			t.Fatal(err)
		}
		rep, err := f.RenderCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(rep.Image, want.Image) {
			t.Fatalf("normal frame %d differs from the one-shot frame (maxdiff %d)", i, raster.MaxDiff(rep.Image, want.Image))
		}
		rep.Release()
	}
	if expired == 0 {
		t.Fatal("no RenderCtx deadline expired: the test abandoned no frame")
	}
	t.Logf("%d of 100 deadlines expired mid-frame", expired)
}

// The memory rule of a served frame, beside TestEngineFrameMemory: at the
// serve-closed shape, rendered as rtserve renders it — under a request
// deadline, which makes every receive a timed one — a warm frame whose report
// is released after its PNG is written allocates no raster (partials,
// gathered intermediate, warped frame), no mesh, no fragment store and no
// deadline timer. The ceilings are the highest of fourteen runs (29.0
// objects, 3.6 KB on 2 x86 cores, some beside a busy test binary) plus 10 %.
func TestEngineReleasedFrameMemory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement: not in -short mode, not under the race detector")
	}
	const orbit = 12
	const maxObjects, maxBytes = 32, 4096
	var eng Engine
	rec := telemetry.NewTotals()
	frame := func(i int) {
		cfg := testConfig(4, "nrt:auto")
		cfg.VolumeN, cfg.Width, cfg.Height, cfg.RLE = 96, 384, 384, true
		cfg.Camera = shearwarp.Camera{Yaw: 2 * math.Pi * float64(i%orbit) / orbit, Pitch: 0.2}
		cfg.Telemetry = rec
		f, err := eng.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rep, err := f.RenderCtx(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Image.WritePNG(io.Discard); err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	const frames = 4 * orbit
	for i := 0; i < 2*orbit; i++ {
		frame(i)
	}
	// A collection during the measured frames empties the sync.Pools (the
	// PNG writer's deflate state, bufpool's classes), and refilling them is
	// the collector's bill, not the frame's: one refill read 28.5 KB a frame
	// with a busy test binary alongside. The measured frames run with the
	// collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		frame(i)
	}
	runtime.ReadMemStats(&m1)
	objects := float64(m1.Mallocs-m0.Mallocs) / frames
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / frames
	t.Logf("warm released frame: %.1f objects, %.1f KB", objects, bytes/1024)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("warm released frame allocates %.0f objects / %.0f bytes, want at most %d / %d",
			objects, bytes, maxObjects, maxBytes)
	}
}
