package core

import (
	"fmt"
	"testing"

	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/transport/inproc"
)

func testConfig(p int, method string) Config {
	m, err := ParseMethod(method)
	if err != nil {
		panic(err)
	}
	return Config{
		Dataset: "engine",
		VolumeN: 32,
		Camera:  shearwarp.Camera{Yaw: 0.3, Pitch: 0.15},
		Width:   64,
		Height:  64,
		P:       p,
		Method:  m,
		Codec:   "trle",
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"bs":       {Kind: "bs", N: 4},
		"pp":       {Kind: "pp", N: 4},
		"ds":       {Kind: "ds", N: 4},
		"nrt:3":    {Kind: "nrt", N: 3},
		"2nrt:4":   {Kind: "2nrt", N: 4},
		"rt:7":     {Kind: "rt", N: 7},
		"nrt:1":    {Kind: "nrt", N: 1},
		"nrt:auto": {Kind: "nrt", N: 0},
		"rt:1024":  {Kind: "rt", N: maxMethodN},
	}
	for s, want := range cases {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	// N = 0 would silently mean auto, and an N past maxMethodN would build a
	// schedule larger than any frame.
	for _, s := range []string{"zap", "nrt:x", "", "nrt:0", "nrt:-1", "rt:1025", "nrt:2000000"} {
		if _, err := ParseMethod(s); err == nil {
			t.Fatalf("ParseMethod(%q) accepted", s)
		}
	}
}

func TestMethodString(t *testing.T) {
	if s := (Method{Kind: "nrt", N: 3}).String(); s != "nrt:3" {
		t.Fatalf("String = %q", s)
	}
	if s := (Method{Kind: "bs", N: 4}).String(); s != "bs" {
		t.Fatalf("String = %q", s)
	}
}

// The full parallel pipeline must reproduce the serial render (up to the
// association-order quantisation of the render stage).
func TestParallelMatchesSerial(t *testing.T) {
	for _, method := range []string{"bs", "pp", "ds", "nrt:3", "2nrt:4"} {
		p := 4
		cfg := testConfig(p, method)
		serial, err := RenderSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RenderParallel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if rep.Image == nil || rep.Image.W != 64 || rep.Image.H != 64 {
			t.Fatalf("%s: bad final image", method)
		}
		if d := raster.MaxDiff(rep.Image, serial); d > 4 {
			t.Fatalf("%s: parallel image differs from serial by %d", method, d)
		}
		if rep.RenderTime <= 0 || rep.CompositeAll <= 0 {
			t.Fatalf("%s: missing timings %+v", method, rep)
		}
		if len(rep.Reports) != p || rep.Reports[p-1] == nil {
			t.Fatalf("%s: missing per-rank reports", method)
		}
	}
}

func TestParallelMethodsAgreeWithEachOther(t *testing.T) {
	imgs := map[string]*raster.Image{}
	for _, method := range []string{"bs", "nrt:3", "2nrt:4", "pp"} {
		rep, err := RenderParallel(testConfig(8, method))
		if err != nil {
			t.Fatal(err)
		}
		imgs[method] = rep.Intermediate
	}
	base := imgs["bs"]
	for name, im := range imgs {
		if d := raster.MaxDiff(im, base); d > 3 {
			t.Fatalf("%s intermediate differs from bs by %d", name, d)
		}
	}
}

func TestRenderParallelErrors(t *testing.T) {
	cfg := testConfig(4, "bs")
	cfg.Dataset = "nope"
	if _, err := RenderParallel(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	cfg = testConfig(3, "bs") // BS needs a power of two
	if _, err := RenderParallel(cfg); err == nil {
		t.Fatal("bs with p=3 accepted")
	}
	cfg = testConfig(4, "nrt:3")
	cfg.Codec = "zip"
	if _, err := RenderParallel(cfg); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// A resolution of zero or less is an error on every path that builds a
// phantom, not a panic in the volume allocator: rtserve prepares a frame
// per request, rtnode renders one rank, rtrender may render serially.
func TestPhantomRejectsNonPositiveResolution(t *testing.T) {
	for _, n := range []int{0, -1} {
		cfg := testConfig(4, "bs")
		cfg.VolumeN = n
		if _, err := new(Engine).Prepare(cfg); err == nil {
			t.Fatalf("Prepare accepted resolution %d", n)
		}
		if _, err := RenderSerial(cfg); err == nil {
			t.Fatalf("RenderSerial accepted resolution %d", n)
		}
	}
}

// The accelerated render path must not change the pipeline's output.
func TestAcceleratePreservesOutput(t *testing.T) {
	cfg := testConfig(4, "nrt:3")
	plain, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accelerate = true
	fast, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain.Intermediate, fast.Intermediate) {
		t.Fatal("accelerated pipeline differs from plain pipeline")
	}
}

// With a 2-D image-space partition the partial footprints are disjoint, so
// the composited intermediate equals the serial render exactly and the
// composition method does not matter.
func TestPartition2D(t *testing.T) {
	for _, method := range []string{"ds", "nrt:2", "pp"} {
		cfg := testConfig(4, method)
		cfg.Partition = "2d"
		rep, err := RenderParallel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		cfg1d := testConfig(4, method)
		full, err := RenderParallel(cfg1d)
		if err != nil {
			t.Fatal(err)
		}
		if d := raster.MaxDiff(rep.Intermediate, full.Intermediate); d > 3 {
			t.Fatalf("%s: 2-D partition intermediate differs from 1-D by %d", method, d)
		}
		// Disjoint footprints: the whole composition moved far fewer
		// non-blank pixels; verify the wire saw real compression benefit.
		var raw int64
		for _, r := range rep.Reports {
			raw += r.RawBytes
		}
		if raw == 0 {
			t.Fatalf("%s: no composition traffic in 2-D mode", method)
		}
	}
	cfg := testConfig(4, "ds")
	cfg.Partition = "3d"
	if _, err := RenderParallel(cfg); err == nil {
		t.Fatal("unknown partition scheme accepted")
	}
}

func TestAutoNMethod(t *testing.T) {
	m, err := ParseMethod("nrt:auto")
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 0 {
		t.Fatalf("auto method N = %d, want 0", m.N)
	}
	resolved, err := m.ResolveN(8, 128*128)
	if err != nil {
		t.Fatal(err)
	}
	if resolved.N < 1 || resolved.N > 32 {
		t.Fatalf("resolved N = %d", resolved.N)
	}
	// 2N_RT auto must resolve to an even N.
	m2, _ := ParseMethod("2nrt:auto")
	resolved2, err := m2.ResolveN(8, 128*128)
	if err != nil {
		t.Fatal(err)
	}
	if resolved2.N%2 != 0 {
		t.Fatalf("2nrt auto N = %d, want even", resolved2.N)
	}
	// Non-RT kinds pass through.
	bs, _ := ParseMethod("bs")
	if r, err := bs.ResolveN(8, 1024); err != nil || r != bs {
		t.Fatalf("bs ResolveN changed the method: %+v, %v", r, err)
	}
	// An engine plans for the pixel count's bucket: it resolves what ResolveN
	// picks for the bucket, and a later count of the same bucket builds no
	// schedule — the one the first resolve picked comes back, and the lookup
	// allocates nothing like AutoN's 32 candidate schedules.
	var eng Engine
	const apix, sameBucket = 150 * 110, 128*128 + 999
	first, err := eng.schedule(m, 8, apix)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := m.ResolveN(8, pixelBucket(apix)); err != nil || first.Tiles != want.N {
		t.Fatalf("engine resolved %d tiles for %d pixels, ResolveN picked N = %d for its bucket (%v)",
			first.Tiles, apix, want.N, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		again, err := eng.schedule(m, 8, sameBucket)
		if err != nil || again != first {
			t.Fatalf("second resolve returned %p, %v; want the first schedule %p", again, err, first)
		}
	})
	if allocs > 8 {
		t.Fatalf("second resolve allocates %.0f objects: it is rebuilding", allocs)
	}
	// End-to-end render with auto N.
	cfg := testConfig(4, "nrt:auto")
	rep, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Image == nil {
		t.Fatal("no image with auto N")
	}
}

func TestRLEModePreservesOutput(t *testing.T) {
	cfg := testConfig(4, "2nrt:4")
	plain, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RLE = true
	fast, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain.Intermediate, fast.Intermediate) {
		t.Fatal("RLE-volume pipeline differs from plain pipeline")
	}
}

func TestMethodScheduleAllKinds(t *testing.T) {
	for _, s := range []string{"bs", "pp", "ds", "tree", "radixk", "nrt:3", "2nrt:4", "rt:5"} {
		m, err := ParseMethod(s)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := m.Schedule(8)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if sched.P != 8 {
			t.Fatalf("%s: schedule for %d ranks", s, sched.P)
		}
	}
	bad := Method{Kind: "warp", N: 1}
	if _, err := bad.Schedule(8); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (Method{Kind: "radixk"}).Schedule(6); err == nil {
		t.Fatal("radixk with non-power-of-two P accepted")
	}
}

// RenderRank drives one rank directly over a communicator — the multi-
// process entry point — here exercised on the in-process fabric. Under
// ":auto" every rank plans N from its own Config, as the ranks of an rtnode
// mesh do, and all of them must plan the same N.
func TestRenderRank(t *testing.T) {
	for _, method := range []string{"2nrt:2", "nrt:auto"} {
		cfg := testConfig(4, method)
		want, err := RenderParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs := make([]*raster.Image, cfg.P)
		tiles := make([]int, cfg.P)
		msgs := make([]int64, cfg.P)
		err = inproc.Run(cfg.P, func(c comm.Comm) error {
			f, err := new(Engine).Prepare(cfg)
			if err != nil {
				return err
			}
			tiles[c.Rank()] = f.sched.Tiles
			img, rep, err := RenderRank(c, cfg)
			if err != nil {
				return err
			}
			if rep == nil {
				return fmt.Errorf("rank %d: no report", c.Rank())
			}
			imgs[c.Rank()], msgs[c.Rank()] = img, rep.Comm.MsgsSent
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if imgs[0] == nil {
			t.Fatalf("%s: rank 0 returned no image", method)
		}
		for r := 1; r < cfg.P; r++ {
			if imgs[r] != nil {
				t.Fatalf("%s: rank %d returned an image", method, r)
			}
			if tiles[r] != tiles[0] {
				t.Fatalf("%s: rank %d plans N = %d, rank 0 N = %d", method, r, tiles[r], tiles[0])
			}
		}
		for r, rep := range want.Reports {
			if msgs[r] != rep.Comm.MsgsSent {
				t.Fatalf("%s: rank %d sent %d messages, %d under RenderParallel", method, r, msgs[r], rep.Comm.MsgsSent)
			}
		}
		if !raster.Equal(imgs[0], want.Image) {
			t.Fatalf("%s: RenderRank image differs from RenderParallel", method)
		}
	}
	// Bad configs surface as errors on every rank.
	bad := testConfig(4, "2nrt:2")
	bad.Dataset = "zap"
	err := inproc.Run(bad.P, func(c comm.Comm) error {
		if _, _, err := RenderRank(c, bad); err == nil {
			return fmt.Errorf("unknown dataset accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
