package compositor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
)

// runInproc composites the given layers with a schedule on the in-process
// fabric and returns the gathered final image from rank 0.
func runInproc(t *testing.T, sched *schedule.Schedule, layers []*raster.Image, cdc codec.Codec) *raster.Image {
	t.Helper()
	var mu sync.Mutex
	var final *raster.Image
	err := inproc.Run(sched.P, func(c comm.Comm) error {
		img, _, err := Run(c, sched, layers[c.Rank()], Options{Codec: cdc, GatherRoot: 0})
		if err != nil {
			return err
		}
		if img != nil {
			mu.Lock()
			final = img
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("no final image gathered")
	}
	return final
}

func makeLayers(rng *rand.Rand, p, w, h int, binary bool) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		if binary {
			layers[r] = raster.RandomBinaryImage(rng, w, h, 0.55)
		} else {
			layers[r] = raster.RandomImage(rng, w, h, 0.45)
		}
	}
	return layers
}

type method struct {
	name  string
	build func(p int) (*schedule.Schedule, error)
	okFor func(p int) bool
}

func methods() []method {
	return []method{
		{"direct-send", schedule.DirectSend, func(int) bool { return true }},
		{"binary-swap", schedule.BinarySwap, schedule.IsPowerOfTwo},
		{"pipeline", schedule.Pipeline, func(int) bool { return true }},
		{"rt-n2", func(p int) (*schedule.Schedule, error) { return schedule.RT(p, 2) }, func(int) bool { return true }},
		{"rt-n3", func(p int) (*schedule.Schedule, error) { return schedule.RT(p, 3) }, func(int) bool { return true }},
		{"rt-n4", func(p int) (*schedule.Schedule, error) { return schedule.RT(p, 4) }, func(int) bool { return true }},
		{"tree", schedule.Tree, func(int) bool { return true }},
		{"radixk", func(p int) (*schedule.Schedule, error) {
			factors, err := schedule.DefaultFactors(p)
			if err != nil {
				return nil, err
			}
			return schedule.RadixK(p, factors)
		}, schedule.IsPowerOfTwo},
	}
}

// With binary alpha the u8 over operator is exactly associative, so every
// method with every codec must reproduce the serial composite byte for
// byte. This is the end-to-end analogue of schedule.Validate.
func TestAllMethodsExactWithBinaryAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []int{2, 3, 4, 5, 8} {
		layers := makeLayers(rng, p, 37, 11, true)
		want := compose.SerialComposite(layers)
		for _, m := range methods() {
			if !m.okFor(p) {
				continue
			}
			sched, err := m.build(p)
			if err != nil {
				t.Fatalf("%s(p=%d): %v", m.name, p, err)
			}
			for _, cname := range codec.Names() {
				cdc, _ := codec.ByName(cname)
				got := runInproc(t, sched, layers, cdc)
				if !raster.Equal(got, want) {
					t.Fatalf("%s/%s p=%d: image differs from serial composite (maxdiff %d)",
						m.name, cname, p, raster.MaxDiff(got, want))
				}
			}
		}
	}
}

// With general alpha, different association orders differ only by
// quantisation; all methods must stay within a small tolerance of the
// float reference.
func TestAllMethodsToleranceWithGeneralAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := 6
	layers := makeLayers(rng, p, 64, 16, false)
	want := compose.SerialCompositeF(layers)
	for _, m := range methods() {
		if !m.okFor(p) {
			continue
		}
		sched, err := m.build(p)
		if err != nil {
			t.Fatal(err)
		}
		got := runInproc(t, sched, layers, codec.TRLE{})
		if d := raster.MaxDiff(got, want); d > 3 {
			t.Fatalf("%s: max diff %d vs float reference", m.name, d)
		}
	}
}

func TestRealisticPartialImages(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := 8
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, 96, 64, r, p)
	}
	want := compose.SerialComposite(layers)
	sched, err := schedule.RT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := runInproc(t, sched, layers, codec.TRLE{})
	if d := raster.MaxDiff(got, want); d > 3 {
		t.Fatalf("max diff %d", d)
	}
}

func TestSingleRank(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	layers := makeLayers(rng, 1, 16, 16, false)
	sched, err := schedule.RT(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := runInproc(t, sched, layers, nil)
	if !raster.Equal(got, layers[0]) {
		t.Fatal("single-rank composition must be the identity")
	}
}

func TestNoGather(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	p := 4
	layers := makeLayers(rng, p, 16, 16, true)
	sched, _ := schedule.BinarySwap(p)
	err := inproc.Run(p, func(c comm.Comm) error {
		img, rep, err := Run(c, sched, layers[c.Rank()], Options{GatherRoot: -1})
		if err != nil {
			return err
		}
		if img != nil {
			return fmt.Errorf("image returned with gather disabled")
		}
		if rep.FinalBlocks == 0 {
			return fmt.Errorf("rank %d holds no final blocks", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := 4
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, 64, 64, r, p) // sparse
	}
	sched, _ := schedule.RT(p, 2)
	reports := make([]*Report, p)
	err := inproc.Run(p, func(c comm.Comm) error {
		_, rep, err := Run(c, sched, layers[c.Rank()], Options{Codec: codec.TRLE{}, GatherRoot: 0})
		reports[c.Rank()] = rep
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var raw, wire, over int64
	for _, rep := range reports {
		raw += rep.RawBytes
		wire += rep.WireBytes
		over += rep.OverPixels
	}
	if raw == 0 || wire == 0 {
		t.Fatal("no traffic recorded")
	}
	if wire >= raw {
		t.Fatalf("TRLE did not compress sparse partials: wire %d >= raw %d", wire, raw)
	}
	if over == 0 {
		t.Fatal("no compositing recorded")
	}
	// Symbolic census agrees on the compositing volume (which is
	// codec-independent).
	census, err := schedule.Validate(sched, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	if census.TotalOverPixels() != over {
		t.Fatalf("census over pixels %d != measured %d", census.TotalOverPixels(), over)
	}
}

// The same composition over the TCP fabric must produce the identical
// image and identical raw traffic as the in-process fabric.
func TestTCPFabricEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	p := 4
	layers := makeLayers(rng, p, 32, 32, false)
	sched, err := schedule.RT(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := runInproc(t, sched, layers, codec.RLE{})

	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got *raster.Image
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := tcpnet.Start(tcpnet.Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			img, _, err := Run(ep, sched, layers[r], Options{Codec: codec.RLE{}, GatherRoot: 0})
			if err != nil {
				errs[r] = err
				return
			}
			if img != nil {
				mu.Lock()
				got = img
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got == nil {
		t.Fatal("no image over TCP")
	}
	if !raster.Equal(got, want) {
		t.Fatal("TCP and in-process fabrics disagree")
	}
}

func TestMismatchedCommSize(t *testing.T) {
	sched, _ := schedule.BinarySwap(4)
	err := inproc.Run(2, func(c comm.Comm) error {
		_, _, err := Run(c, sched, raster.New(8, 8), Options{GatherRoot: 0})
		if err == nil {
			return fmt.Errorf("mismatched size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargerSweepRT(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in short mode")
	}
	rng := rand.New(rand.NewSource(49))
	for _, p := range []int{7, 9, 12, 16} {
		layers := makeLayers(rng, p, 40, 10, true)
		want := compose.SerialComposite(layers)
		for n := 1; n <= 5; n++ {
			sched, err := schedule.RT(p, n)
			if err != nil {
				t.Fatal(err)
			}
			got := runInproc(t, sched, layers, codec.TRLE{})
			if !raster.Equal(got, want) {
				t.Fatalf("RT(%d,%d) differs from serial composite", p, n)
			}
		}
	}
}

// A rank dying mid-composition must surface as an error on the peers that
// wait for it — never a hang.
func TestDeadRankFailsCleanlyOverTCP(t *testing.T) {
	p := 3
	rng := rand.New(rand.NewSource(50))
	layers := makeLayers(rng, p, 16, 16, true)
	sched, err := schedule.RT(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := tcpnet.Start(tcpnet.Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
			if err != nil {
				results <- err
				return
			}
			if r == 2 {
				// Die immediately after the mesh is up.
				ep.Close()
				results <- nil
				return
			}
			defer ep.Close()
			_, _, err = Run(ep, sched, layers[r], Options{GatherRoot: 0})
			results <- err
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("composition hung after rank death")
	}
	close(results)
	failures := 0
	for err := range results {
		if err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no surviving rank reported the dead peer")
	}
}
