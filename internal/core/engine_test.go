package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/volume"
)

// octantCameras are the cameras of shearwarp's TestRLEVolumeMatchesPlainExactly:
// every principal axis, both directions, sheared and not.
var octantCameras = []shearwarp.Camera{
	{},                        // +Z
	{Yaw: 3.14},               // -Z (flip)
	{Yaw: 1.57},               // +X
	{Yaw: -1.57},              // -X
	{Pitch: 1.5},              // Y principal
	{Yaw: 0.4, Pitch: -0.3},   // sheared
	{Yaw: -2.62, Pitch: 0.25}, // sheared, flipped
	{Yaw: 2.0, Pitch: -1.2},   // Y principal, flipped
}

// engineFrame renders one frame the way rtserve does: prepared on a shared
// engine, from the encoded volume.
func engineFrame(e *Engine, cfg Config) (*FrameReport, error) {
	cfg.Accelerate, cfg.RLE = false, true
	f, err := e.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return f.Render()
}

// A frame from an engine — cold or warm — is byte-identical to the one-shot
// accelerated RenderParallel of the same configuration, and as close to the
// serial render as the one-shot pipeline is.
func TestEngineDifferential(t *testing.T) {
	var eng Engine
	for _, dataset := range volume.Datasets {
		for _, part := range []string{"1d", "2d"} {
			for ci, cam := range octantCameras {
				cfg := testConfig(4, "nrt:auto")
				cfg.Dataset, cfg.Partition, cfg.Camera = dataset, part, cam
				name := fmt.Sprintf("%s/%s/cam%d", dataset, part, ci)

				oneShot := cfg
				oneShot.Accelerate = true
				want, err := RenderParallel(oneShot)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				serial, err := RenderSerial(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The first pass meets each axis' encoding unbuilt at least
				// once; the second finds everything warm.
				for pass := 0; pass < 2; pass++ {
					got, err := engineFrame(&eng, cfg)
					if err != nil {
						t.Fatalf("%s pass %d: %v", name, pass, err)
					}
					if !raster.Equal(got.Intermediate, want.Intermediate) || !raster.Equal(got.Image, want.Image) {
						t.Fatalf("%s pass %d: engine frame differs from the one-shot accelerated frame (maxdiff %d)",
							name, pass, raster.MaxDiff(got.Image, want.Image))
					}
					if d := raster.MaxDiff(got.Image, serial); d > 4 {
						t.Fatalf("%s pass %d: engine frame differs from serial by %d", name, pass, d)
					}
				}
			}
		}
	}
}

// Four goroutines share one cold engine: different cameras (all three
// principal axes, so every axis' first encoding is raced for, and different
// intermediate sizes, so the shared schedule's tile-span memo is contended)
// and different methods. Run under -race.
func TestEngineConcurrentFrames(t *testing.T) {
	methods := []string{"nrt:auto", "nrt:auto", "2nrt:auto", "bs"}
	const rounds = 3
	want := make([][]*raster.Image, len(methods))
	cfgs := make([][]Config, len(methods))
	for g, method := range methods {
		for i := 0; i < rounds*len(octantCameras); i++ {
			cfg := testConfig(4, method)
			cfg.Camera = octantCameras[(g*3+i)%len(octantCameras)]
			cfg.Accelerate = true
			rep, err := RenderParallel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgs[g] = append(cfgs[g], cfg)
			want[g] = append(want[g], rep.Image)
		}
	}
	var eng Engine
	var wg sync.WaitGroup
	for g := range methods {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, cfg := range cfgs[g] {
				got, err := engineFrame(&eng, cfg)
				if err != nil {
					t.Errorf("goroutine %d frame %d: %v", g, i, err)
					return
				}
				if !raster.Equal(got.Image, want[g][i]) {
					t.Errorf("goroutine %d frame %d: shared-engine frame differs from its one-shot render", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := eng.scenes.len(); n != 1 {
		t.Fatalf("engine holds %d scenes for one dataset", n)
	}
	if n := eng.scheds.len(); n != 3 {
		t.Fatalf("engine holds %d schedules for three methods", n)
	}
}

// The memory rule of the frame engine, beside the compositor's
// TestSteadyStateFrameBytes: at the serve-closed shape (engine 96³, 384²,
// P=4, nrt:auto, trle, recorder on, PNG encoded) a warm frame allocates what
// its pixels need — the partials, the gathered and the warped image — and
// no volume, encoding, schedule or plan; and serving frames does not grow
// the engine (500 of them, at a small shape to keep the suite quick).
func TestEngineFrameMemory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement: not in -short mode, not under the race detector")
	}
	const orbit = 12
	const maxObjects, maxBytes = 1500, 1 << 20
	var eng Engine
	rec := telemetry.NewTotals()
	frame := func(i, volN, edge int) {
		cfg := testConfig(4, "nrt:auto")
		cfg.VolumeN, cfg.Width, cfg.Height = volN, edge, edge
		cfg.Camera = shearwarp.Camera{Yaw: 2 * math.Pi * float64(i%orbit) / orbit, Pitch: 0.2}
		cfg.Telemetry = rec
		rep, err := engineFrame(&eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Image.WritePNG(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	const frames = 4 * orbit
	for i := 0; i < 2*orbit; i++ {
		frame(i, 96, 384)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		frame(i, 96, 384)
	}
	runtime.ReadMemStats(&m1)
	objects := float64(m1.Mallocs-m0.Mallocs) / frames
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / frames
	t.Logf("warm engine frame: %.0f objects, %.0f KB", objects, bytes/1024)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("warm engine frame allocates %.0f objects / %.0f bytes, want at most %d / %d",
			objects, bytes, maxObjects, maxBytes)
	}

	for i := 0; i < 500; i++ {
		frame(i, 32, 64)
	}
	// Each shape's orbit composites intermediate images of two power-of-two
	// pixel buckets (8 192 and 16 384 pixels at 96³), so the two shapes hold
	// four block counts, whatever the final image sizes.
	if s, a, c := eng.scenes.len(), eng.autoN.len(), eng.scheds.len(); s != 2 || a != 4 || c > 4 {
		t.Fatalf("two shapes of one dataset and method: engine holds %d scenes, %d block counts, %d schedules", s, a, c)
	}
}

// An automatic block count is planned for the intermediate image the ranks
// composite, not for the PNG the caller asked for: one camera resolves the
// same N at every final size, the served frame (engine 96³, P = 4) stays at
// N ≤ 4 on every camera of the benchmark's orbit, and the orbit × sizes
// leave one block count per pixel bucket in the engine.
func TestEngineBlockCountKey(t *testing.T) {
	var eng Engine
	tiles := func(cam shearwarp.Camera, edge int) int {
		t.Helper()
		cfg := testConfig(4, "nrt:auto")
		cfg.VolumeN, cfg.Width, cfg.Height, cfg.Camera = 96, edge, edge, cam
		f, err := eng.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f.sched.Tiles
	}
	sizes := []int{64, 384, 1024}
	one := shearwarp.Camera{Yaw: 0.7, Pitch: 0.2}
	for _, edge := range sizes[1:] {
		if a, b := tiles(one, sizes[0]), tiles(one, edge); a != b {
			t.Fatalf("one camera: N = %d at %d², %d at %d²", a, sizes[0], b, edge)
		}
	}
	const orbitLen = 12
	for i := 0; i < orbitLen; i++ {
		turn := 2 * math.Pi * float64(i) / orbitLen
		cam := shearwarp.Camera{Yaw: math.Remainder(turn, 2*math.Pi), Pitch: 0.3 * math.Sin(turn)}
		for _, edge := range sizes {
			if n := tiles(cam, edge); n > 4 {
				t.Fatalf("orbit camera %d at %d²: N = %d, want at most 4", i, edge, n)
			}
		}
	}
	if a := eng.autoN.len(); a > 2 {
		t.Fatalf("one orbit at three sizes: engine holds %d block counts, want at most 2 (one per pixel bucket)", a)
	}
}

func TestPixelBucket(t *testing.T) {
	for _, c := range []struct{ apix, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 4},
		{9409, 8192}, {16383, 8192}, {16384, 16384}, {17136, 16384},
		{2048 * 2048, 2048 * 2048}, {2048*2048 + 1, 2048 * 2048},
	} {
		if got := pixelBucket(c.apix); got != c.want {
			t.Errorf("pixelBucket(%d) = %d, want %d", c.apix, got, c.want)
		}
	}
}

// Caller input must not grow the engine: failed lookups are not kept, kinds
// that ignore N share one schedule, and an N beyond the planner's range is
// built per frame.
func TestEngineTablesBounded(t *testing.T) {
	var eng Engine
	for i := 0; i < 50; i++ {
		if _, err := eng.scene(fmt.Sprintf("nope%d", i), 16); err == nil {
			t.Fatal("unknown dataset accepted")
		}
		if _, err := eng.schedule(Method{Kind: "bs", N: i}, 4, 64*64); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.schedule(Method{Kind: "bs"}, 3, 64*64); err == nil {
			t.Fatal("bs on 3 ranks accepted")
		}
		if _, err := eng.schedule(Method{Kind: "rt", N: maxMemoN + 1 + i}, 4, 64*64); err != nil {
			t.Fatal(err)
		}
	}
	if s, c := eng.scenes.len(), eng.scheds.len(); s != 0 || c != 1 {
		t.Fatalf("engine holds %d scenes and %d schedules, want 0 and 1", s, c)
	}
}
