package simnet

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/inproc"
)

func binaryLayers(rng *rand.Rand, p, w, h int) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.RandomBinaryImage(rng, w, h, 0.5)
	}
	return layers
}

func sparseLayers(rng *rand.Rand, p, w, h int) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, w, h, r, p)
	}
	return layers
}

func mustRT(t testing.TB, p, n int) *schedule.Schedule {
	t.Helper()
	s, err := schedule.RT(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimulatedImageMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, p := range []int{2, 3, 5, 8} {
		layers := binaryLayers(rng, p, 40, 12)
		want := compose.SerialComposite(layers)
		for _, build := range []func() *schedule.Schedule{
			func() *schedule.Schedule { return mustRT(t, p, 3) },
			func() *schedule.Schedule { s, _ := schedule.Pipeline(p); return s },
			func() *schedule.Schedule { s, _ := schedule.DirectSend(p); return s },
		} {
			sched := build()
			res, err := Simulate(sched, layers, codec.TRLE{}, SP2Calibrated())
			if err != nil {
				t.Fatalf("%s p=%d: %v", sched.Name, p, err)
			}
			if !raster.Equal(res.Image, want) {
				t.Fatalf("%s p=%d: simulated image differs from serial composite", sched.Name, p)
			}
		}
	}
}

func TestTrafficMatchesCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := 6
	layers := binaryLayers(rng, p, 48, 16)
	for _, sched := range []*schedule.Schedule{
		mustRT(t, p, 4),
		func() *schedule.Schedule { s, _ := schedule.Pipeline(p); return s }(),
	} {
		res, err := Simulate(sched, layers, nil, SP2Calibrated())
		if err != nil {
			t.Fatal(err)
		}
		census, err := schedule.Validate(sched, 48*16)
		if err != nil {
			t.Fatal(err)
		}
		if res.Msgs != census.TotalMessages() {
			t.Fatalf("%s: sim msgs %d != census %d", sched.Name, res.Msgs, census.TotalMessages())
		}
		if res.RawBytes != census.TotalBytes() {
			t.Fatalf("%s: sim raw bytes %d != census %d", sched.Name, res.RawBytes, census.TotalBytes())
		}
		if res.OverPixels != census.TotalOverPixels() {
			t.Fatalf("%s: sim over pixels %d != census %d", sched.Name, res.OverPixels, census.TotalOverPixels())
		}
		if res.WireBytes != res.RawBytes {
			t.Fatalf("%s: raw codec must not change wire bytes", sched.Name)
		}
	}
}

func TestTimeIsPositiveAndStepsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	p := 8
	layers := binaryLayers(rng, p, 64, 64)
	res, err := Simulate(mustRT(t, p, 4), layers, nil, PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("time = %v", res.Time)
	}
	prev := 0.0
	for i, st := range res.StepTime {
		if st < prev {
			t.Fatalf("step %d time %v < previous %v", i, st, prev)
		}
		prev = st
	}
	if res.Time != res.StepTime[len(res.StepTime)-1] {
		t.Fatalf("final time %v != last step %v", res.Time, res.StepTime[len(res.StepTime)-1])
	}
}

// The headline comparison of the paper's Figure 6: with 32 processors on a
// 512x512 image, rotate-tiling at a good N beats binary-swap, and both beat
// parallel-pipelined.
func TestRTBeatsBSBeatsPPAt32(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := 32
	layers := binaryLayers(rng, p, 512, 256) // half-height 512x512 for test speed
	params := SP2Calibrated()

	bsSched, _ := schedule.BinarySwap(p)
	bs, err := Simulate(bsSched, layers, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	ppSched, _ := schedule.Pipeline(p)
	pp, err := Simulate(ppSched, layers, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	best := -1.0
	for n := 2; n <= 16; n += 2 {
		res, err := Simulate(mustRT(t, p, n), layers, nil, params)
		if err != nil {
			t.Fatal(err)
		}
		if best < 0 || res.Time < best {
			best = res.Time
		}
	}
	if best >= bs.Time {
		t.Fatalf("RT best %.6f not better than BS %.6f", best, bs.Time)
	}
	if bs.Time >= pp.Time {
		t.Fatalf("BS %.6f not better than PP %.6f", bs.Time, pp.Time)
	}
}

// Composition time versus the number of initial blocks must be U-shaped:
// too few blocks give no pipelining, too many drown in message startups.
func TestRTTimeIsUShapedInN(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := 32
	layers := binaryLayers(rng, p, 512, 256)
	params := SP2Calibrated()
	time := func(n int) float64 {
		res, err := Simulate(mustRT(t, p, n), layers, nil, params)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t1 := time(1)
	t64 := time(64)
	best, bestN := t1, 1
	for _, n := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
		if tt := time(n); tt < best {
			best, bestN = tt, n
		}
	}
	if best >= t1 {
		t.Fatalf("no falling arm: best %.6f at N=%d vs N=1 %.6f", best, bestN, t1)
	}
	if best >= t64 {
		t.Fatalf("no rising arm: best %.6f at N=%d vs N=64 %.6f", best, bestN, t64)
	}
}

// TRLE must reduce composition time on realistic sparse partial images, and
// beat RLE (the paper's Figures 7 and 8 orderings).
func TestCodecOrderingOnSparseImages(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	p := 16
	layers := sparseLayers(rng, p, 256, 128)
	params := SP2Calibrated()
	sched := mustRT(t, p, 4)
	times := map[string]float64{}
	for _, name := range codec.Names() {
		cdc, _ := codec.ByName(name)
		res, err := Simulate(sched, layers, cdc, params)
		if err != nil {
			t.Fatal(err)
		}
		times[name] = res.Time
	}
	if !(times["trle"] < times["rle"] && times["rle"] < times["raw"]) {
		t.Fatalf("codec ordering violated: %v", times)
	}
}

func TestStepBarrierNeverFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	p := 12
	layers := binaryLayers(rng, p, 64, 64)
	sched := mustRT(t, p, 4)
	free, err := Simulate(sched, layers, nil, SP2Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	params := SP2Calibrated()
	params.StepBarrier = true
	sync, err := Simulate(sched, layers, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Time < free.Time-1e-12 {
		t.Fatalf("barrier run %.6f faster than free-running %.6f", sync.Time, free.Time)
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	sched := mustRT(t, 4, 2)
	rng := rand.New(rand.NewSource(67))
	if _, err := Simulate(sched, binaryLayers(rng, 3, 8, 8), nil, SP2Calibrated()); err == nil {
		t.Fatal("layer count mismatch accepted")
	}
	layers := binaryLayers(rng, 4, 8, 8)
	layers[2] = raster.New(9, 9)
	if _, err := Simulate(sched, layers, nil, SP2Calibrated()); err == nil {
		t.Fatal("layer size mismatch accepted")
	}
}

func TestSingleRankSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	layers := binaryLayers(rng, 1, 16, 16)
	res, err := Simulate(mustRT(t, 1, 4), layers, nil, SP2Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 0 {
		t.Fatalf("single rank composition time %v, want 0", res.Time)
	}
	if !raster.Equal(res.Image, layers[0]) {
		t.Fatal("single rank image differs")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	p := 8
	layers := binaryLayers(rng, p, 64, 32)
	sched := mustRT(t, p, 4)
	a, err := Simulate(sched, layers, codec.TRLE{}, SP2Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sched, layers, codec.TRLE{}, SP2Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Msgs != b.Msgs || a.WireBytes != b.WireBytes {
		t.Fatalf("simulation not deterministic: %v/%v", a.Time, b.Time)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("event traces differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if !raster.Equal(a.Image, b.Image) {
		t.Fatal("images differ between runs")
	}
}

// Under the one-port network model, send-order rotation matters: a
// direct-send whose senders all target receiver 0 first, then 1, ...
// piles messages onto one receive port at a time, while the rotated
// schedule (each rank starts with its successor) staggers arrivals. This
// is the port-contention argument behind the "rotate" in rotate-tiling.
func TestSinglePortRewardsRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := 16
	layers := binaryLayers(rng, p, 256, 128)
	single := SP2Calibrated()
	single.SinglePort = true

	rotated, err := schedule.DirectSend(p)
	if err != nil {
		t.Fatal(err)
	}
	// Hot-spot variant: same transfers, ordered receiver-major so every
	// sender hits the same receiver back to back.
	hotspot := &schedule.Schedule{Name: "direct-send-hotspot", P: p, Tiles: p}
	st := schedule.Step{}
	for j := 0; j < p; j++ {
		for r := 0; r < p; r++ {
			if r == j {
				continue
			}
			st.Transfers = append(st.Transfers, schedule.Transfer{
				From: r, To: j, Block: schedule.Block{Tile: j},
			})
		}
	}
	hotspot.Steps = []schedule.Step{st}
	if _, err := schedule.Validate(hotspot, 256*128); err != nil {
		t.Fatal(err)
	}

	rotRes, err := Simulate(rotated, layers, nil, single)
	if err != nil {
		t.Fatal(err)
	}
	hotRes, err := Simulate(hotspot, layers, nil, single)
	if err != nil {
		t.Fatal(err)
	}
	if rotRes.Time >= hotRes.Time {
		t.Fatalf("rotation did not help under one port: rotated %.4f vs hotspot %.4f",
			rotRes.Time, hotRes.Time)
	}
	// Without the port constraint the two orderings tie (to within noise).
	multi := SP2Calibrated()
	rotM, err := Simulate(rotated, layers, nil, multi)
	if err != nil {
		t.Fatal(err)
	}
	if rotM.Time > rotRes.Time {
		t.Fatal("single port made the rotated schedule faster")
	}
}

// A straggler rank slows every method, but methods that spread work evenly
// degrade by at most the straggler's own slowdown on its share.
func TestStragglerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := 8
	layers := binaryLayers(rng, p, 256, 128)
	sched := mustRT(t, p, 4)
	base, err := Simulate(sched, layers, nil, SP2Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	slow := SP2Calibrated()
	slow.RankSpeed = make([]float64, p)
	for i := range slow.RankSpeed {
		slow.RankSpeed[i] = 1
	}
	slow.RankSpeed[3] = 3 // one rank at a third of the speed
	res, err := Simulate(sched, layers, nil, slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= base.Time {
		t.Fatal("straggler did not slow the composition")
	}
	if res.Time > 3*base.Time {
		t.Fatalf("straggler over-propagated: %.4f vs base %.4f", res.Time, base.Time)
	}
	// Bad speed vectors are rejected.
	bad := SP2Calibrated()
	bad.RankSpeed = []float64{1, 2}
	if _, err := Simulate(sched, layers, nil, bad); err == nil {
		t.Fatal("wrong RankSpeed length accepted")
	}
	bad.RankSpeed = make([]float64, p)
	if _, err := Simulate(sched, layers, nil, bad); err == nil {
		t.Fatal("zero speed accepted")
	}
}

// The gather is a roughly method-independent add-on — the assumption under
// which the paper excludes it from the composition-time figures.
func TestGatherCost(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := 16
	layers := binaryLayers(rng, p, 256, 128)
	base := SP2Calibrated()
	withGather := SP2Calibrated()
	withGather.IncludeGather = true

	var gathers []float64
	for _, build := range []func() *schedule.Schedule{
		func() *schedule.Schedule { s, _ := schedule.BinarySwap(p); return s },
		func() *schedule.Schedule { return mustRT(t, p, 4) },
	} {
		sched := build()
		a, err := Simulate(sched, layers, nil, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(sched, layers, nil, withGather)
		if err != nil {
			t.Fatal(err)
		}
		if a.GatherTime <= 0 {
			t.Fatalf("%s: gather time %v", sched.Name, a.GatherTime)
		}
		if diff := b.Time - (a.Time + a.GatherTime); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%s: IncludeGather accounting off by %v", sched.Name, diff)
		}
		gathers = append(gathers, a.GatherTime)
	}
	// Same data volume arrives at the root either way; costs must be close.
	ratio := gathers[0] / gathers[1]
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("gather costs differ wildly across methods: %v", gathers)
	}
	// The single-rank case has no gather.
	solo, err := Simulate(mustRT(t, 1, 2), binaryLayers(rng, 1, 32, 32), nil, withGather)
	if err != nil {
		t.Fatal(err)
	}
	if solo.GatherTime != 0 {
		t.Fatalf("solo gather time %v", solo.GatherTime)
	}
}

// TestWireBytesMatchRealRun pins the simulator's traffic accounting to the
// real send path: both frame every fragment through codec.EncodeCapped, so
// the simulated wire and raw bytes must equal the sums of the per-rank
// reports of an in-process run — on noise RLE cannot compress (every block
// escapes to raw) and on the sparse discs TRLE shrinks.
func TestWireBytesMatchRealRun(t *testing.T) {
	const p, w, h = 8, 64, 48
	sched := mustRT(t, p, 4)
	rng := rand.New(rand.NewSource(21))
	noise := make([]*raster.Image, p)
	for r := range noise {
		noise[r] = raster.RandomImage(rng, w, h, 0.10)
	}
	for _, tc := range []struct {
		name   string
		layers []*raster.Image
		cdc    codec.Codec
	}{
		{"noise/rle", noise, codec.RLE{}},
		{"disc/trle", sparseLayers(rng, p, w, h), codec.TRLE{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Simulate(sched, tc.layers, tc.cdc, SP2Calibrated())
			if err != nil {
				t.Fatal(err)
			}
			var raw, wire atomic.Int64
			err = inproc.Run(p, func(c comm.Comm) error {
				_, rep, err := compositor.Run(c, sched, tc.layers[c.Rank()], compositor.Options{Codec: tc.cdc, GatherRoot: 0})
				if err != nil {
					return err
				}
				raw.Add(rep.RawBytes)
				wire.Add(rep.WireBytes)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.RawBytes != raw.Load() || res.WireBytes != wire.Load() {
				t.Fatalf("simulated raw/wire = %d/%d, real run shipped %d/%d",
					res.RawBytes, res.WireBytes, raw.Load(), wire.Load())
			}
			if res.WireBytes > res.RawBytes {
				t.Fatalf("simulated %d wire bytes for %d raw", res.WireBytes, res.RawBytes)
			}
			if tc.name == "noise/rle" && res.WireBytes != res.RawBytes {
				t.Fatalf("RLE on noise: simulated %d wire bytes, want the raw %d", res.WireBytes, res.RawBytes)
			}
		})
	}
}

// Machine names the two machine models the commands offer, and only those.
func TestMachine(t *testing.T) {
	for name, want := range map[string]Params{"sp2": SP2Calibrated(), "paper": PaperExample()} {
		got, err := Machine(name)
		if err != nil || got.Name != want.Name || got.Ts != want.Ts || got.ToPerPixel != want.ToPerPixel {
			t.Fatalf("Machine(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := Machine("cray"); err == nil {
		t.Fatal("Machine accepted an unknown name")
	}
}
