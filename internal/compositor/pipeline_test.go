package compositor

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The pipelined differential suite: the message-driven per-tile executor
// must be byte-identical to the bulk-synchronous oracle for every schedule,
// codec, in-flight window and delivery interleaving — and must stay live
// (terminate or fail with a state dump) at any window size.

// pipeOutcome collects everything a pipelined in-process run produces.
type pipeOutcome struct {
	finals  []*raster.Image
	reports []*Report
	errs    []error
}

// runInprocPipe executes the schedule on the in-process fabric with the
// given options on every rank, under a hard no-hang watchdog.
func runInprocPipe(t *testing.T, sched *schedule.Schedule, layers []*raster.Image, opts Options) pipeOutcome {
	t.Helper()
	p := sched.P
	o := pipeOutcome{
		finals:  make([]*raster.Image, p),
		reports: make([]*Report, p),
		errs:    make([]error, p),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(c comm.Comm) error {
			img, rep, err := Run(c, sched, layers[c.Rank()], opts)
			r := c.Rank()
			o.finals[r] = img
			o.reports[r] = rep
			o.errs[r] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("pipelined run HUNG: schedule did not terminate within the watchdog")
	}
	return o
}

// mustFinal asserts a clean run and returns the root's image.
func (o pipeOutcome) mustFinal(t *testing.T) *raster.Image {
	t.Helper()
	for r, err := range o.errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if o.finals[0] == nil {
		t.Fatal("no final image on the root")
	}
	return o.finals[0]
}

func pipeOptions(cdc codec.Codec) Options {
	return Options{
		Codec:      cdc,
		GatherRoot: 0,
		Pipeline:   PipelineConfig{Enabled: true},
	}
}

// TestPipelinedSmoke is the fast sanity cell of the matrix: one method, one
// codec, default windows, no interleaving.
func TestPipelinedSmoke(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	layers := makeLayers(rng, 4, 37, 11, true)
	want := compose.SerialComposite(layers)
	got := runInprocPipe(t, sched, layers, pipeOptions(codec.TRLE{})).mustFinal(t)
	if !raster.Equal(got, want) {
		t.Fatalf("pipelined differs from sequential reference: maxdiff=%d", raster.MaxDiff(got, want))
	}
}

// TestPipelinedDifferentialMatrix is the issue's differential matrix: every
// schedule method x every wire codec x a sweep of interleaving seeds (seed 0
// = natural delivery order, plus eight seeded permutations), with the
// in-flight window varied across seeds. Binary alpha makes u8 "over" exactly
// associative, so the pipelined image must equal both the synchronous oracle
// and the sequential reference byte for byte.
func TestPipelinedDifferentialMatrix(t *testing.T) {
	const w, h, p = 37, 11, 4
	seeds := []int64{0, 1, 2, 3, 5, 8, 13, 21, 0x5EED}
	windows := []int{0, 1, 2, 3, -1, 1, 2, 0, 3} // paired with seeds by index
	for _, m := range methods() {
		if !m.okFor(p) {
			continue
		}
		sched, err := m.build(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cdcName := range []string{"raw", "rle", "trle"} {
			t.Run(fmt.Sprintf("%s/%s", m.name, cdcName), func(t *testing.T) {
				cdc, err := codec.ByName(cdcName)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(m.name)*100 + len(cdcName))))
				layers := makeLayers(rng, p, w, h, true)
				want := compose.SerialComposite(layers)
				oracle := runInproc(t, sched, layers, cdc) // synchronous path
				if !raster.Equal(oracle, want) {
					t.Fatalf("synchronous oracle differs from sequential reference")
				}
				for i, seed := range seeds {
					opts := pipeOptions(cdc)
					opts.Pipeline.InterleaveSeed = seed
					opts.Pipeline.Window = windows[i]
					got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
					if !raster.Equal(got, oracle) {
						t.Fatalf("seed=%d window=%d: pipelined differs from synchronous oracle: maxdiff=%d",
							seed, windows[i], raster.MaxDiff(got, oracle))
					}
				}
			})
		}
	}
}

// TestPipelinedOddRanksAndLargerP covers processor counts the main matrix
// skips: odd p (no binary-swap) and p=8.
func TestPipelinedOddRanksAndLargerP(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for _, m := range differentialMethods() {
			if !m.okFor(p) {
				continue
			}
			t.Run(fmt.Sprintf("%s/p%d", m.name, p), func(t *testing.T) {
				sched, err := m.build(p)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(p * 7)))
				layers := makeLayers(rng, p, 41, 13, true)
				want := compose.SerialComposite(layers)
				opts := pipeOptions(codec.TRLE{})
				opts.Pipeline.InterleaveSeed = int64(p) * 31
				got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
				if !raster.Equal(got, want) {
					t.Fatalf("maxdiff=%d", raster.MaxDiff(got, want))
				}
			})
		}
	}
}

// TestPipelinedBackpressureWindows is the liveness satellite: the two
// extreme in-flight windows — fully serialized (1) and far beyond the tile
// count (2*tiles) — plus a gather-credit window of 1 must all run to the
// exact result without deadlock (the watchdog in runInprocPipe enforces
// termination).
func TestPipelinedBackpressureWindows(t *testing.T) {
	const p = 4
	for _, m := range differentialMethods() {
		if !m.okFor(p) {
			continue
		}
		sched, err := m.build(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range []int{1, 2 * sched.Tiles} {
			t.Run(fmt.Sprintf("%s/window%d", m.name, win), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(win)))
				layers := makeLayers(rng, p, 37, 11, true)
				want := compose.SerialComposite(layers)
				opts := pipeOptions(codec.TRLE{})
				opts.Pipeline.Window = win
				opts.Pipeline.InterleaveSeed = 777
				got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
				if !raster.Equal(got, want) {
					t.Fatalf("maxdiff=%d", raster.MaxDiff(got, want))
				}
			})
		}
	}
}

// TestPipelinedStallDetectorDumpsState is the stall-detector satellite:
// when every message is silently dropped, a fail-fast pipelined rank must
// fail within its receive deadline — not hang — and the error must carry
// the per-tile state dump naming what each tile was waiting for.
func TestPipelinedStallDetectorDumpsState(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	layers := makeLayers(rng, 4, 32, 32, true)
	p := sched.P
	errs := make([]error, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(c comm.Comm) error {
			ep := faulty.Wrap(c, faulty.Plan{Seed: 1, Drop: 1})
			opts := pipeOptions(codec.TRLE{})
			opts.RecvTimeout = 200 * time.Millisecond
			opts.OnMissing = FailFast
			_, _, err := Run(ep, sched, layers[c.Rank()], opts)
			errs[c.Rank()] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled pipeline HUNG instead of failing within its deadline")
	}
	dumped := false
	for r, err := range errs {
		if err == nil {
			continue
		}
		if !comm.IsRecoverable(err) {
			t.Errorf("rank %d failed untyped: %v", r, err)
		}
		msg := err.Error()
		if strings.Contains(msg, "per-tile states") {
			dumped = true
			if !strings.Contains(msg, "tile 0:") {
				t.Errorf("state dump lacks per-tile lines:\n%s", msg)
			}
			if !strings.Contains(msg, "awaiting") {
				t.Errorf("state dump does not name what is awaited:\n%s", msg)
			}
		}
	}
	if !dumped {
		t.Fatalf("no rank failed with a per-tile state dump; errors: %v", errs)
	}
}

// TestPipelinedStallDumpsFlightRecorder: a fail-fast stall with telemetry
// attached must embed the flight recorder's event history in the error —
// the crash post-mortem — including the stalled tiles' own state
// transitions, so the investigator sees not just where each tile is stuck
// but how it got there.
func TestPipelinedStallDumpsFlightRecorder(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	layers := makeLayers(rng, 4, 32, 32, true)
	p := sched.P
	rec := telemetry.New()
	errs := make([]error, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(c comm.Comm) error {
			ep := faulty.Wrap(c, faulty.Plan{Seed: 1, Drop: 1})
			opts := pipeOptions(codec.TRLE{})
			opts.RecvTimeout = 200 * time.Millisecond
			opts.OnMissing = FailFast
			opts.Telemetry = rec
			_, _, err := Run(ep, sched, layers[c.Rank()], opts)
			errs[c.Rank()] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled pipeline HUNG instead of failing within its deadline")
	}
	dumped := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "flight recorder:") {
			continue
		}
		dumped = true
		// The stalled tile's full history: it was claimed, entered steps,
		// and the stall itself is the final recorded event.
		for _, want := range []string{"tile", "claimed", "pipeline stalled"} {
			if !strings.Contains(msg, want) {
				t.Errorf("flight dump missing %q:\n%s", want, msg)
			}
		}
	}
	if !dumped {
		t.Fatalf("no rank failed with a flight-recorder dump; errors: %v", errs)
	}
	// The recorder itself retains the events for out-of-band dumps too.
	if len(rec.FlightEvents()) == 0 {
		t.Fatal("recorder holds no flight events after a stall")
	}
}

// TestPipelinedComposePartialDegrades: total loss under compose-partial
// must terminate with a flagged, accounted result instead of an error.
func TestPipelinedComposePartialDegrades(t *testing.T) {
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	layers := makeLayers(rng, 4, 32, 32, true)
	p := sched.P
	reports := make([]*Report, p)
	errs := make([]error, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(c comm.Comm) error {
			ep := faulty.Wrap(c, faulty.Plan{Seed: 2, Drop: 1})
			opts := pipeOptions(codec.TRLE{})
			opts.RecvTimeout = 200 * time.Millisecond
			opts.OnMissing = ComposePartial
			_, rep, err := Run(ep, sched, layers[c.Rank()], opts)
			reports[c.Rank()] = rep
			errs[c.Rank()] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("compose-partial pipeline HUNG under total loss")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: compose-partial must absorb loss, got %v", r, err)
		}
	}
	rep0 := reports[0]
	if rep0 == nil || !rep0.Degraded {
		t.Fatal("total loss not flagged Degraded on the root")
	}
	if rep0.MissingTransfers == 0 && rep0.MissingGathers == 0 && rep0.MissingLayerPix == 0 {
		t.Fatal("root degraded without accounting for anything missing")
	}
}

// TestPipelinedNoGather mirrors TestNoGather: with GatherRoot < 0 the
// pipeline stops after composition and every rank reports its final blocks.
func TestPipelinedNoGather(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	layers := makeLayers(rng, 4, 33, 9, true)
	opts := pipeOptions(codec.RLE{})
	opts.GatherRoot = -1
	o := runInprocPipe(t, sched, layers, opts)
	for r, err := range o.errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if o.finals[r] != nil {
			t.Errorf("rank %d produced an image without a gather root", r)
		}
		if o.reports[r] == nil || o.reports[r].FinalBlocks == 0 {
			t.Errorf("rank %d reports no final blocks", r)
		}
	}
}

// TestPipelinedSingleRank: the degenerate one-rank pipeline is a local
// reshuffle plus a self-gather.
func TestPipelinedSingleRank(t *testing.T) {
	sched, err := schedule.Pipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	layers := makeLayers(rng, 1, 19, 23, true)
	got := runInprocPipe(t, sched, layers, pipeOptions(codec.Raw{})).mustFinal(t)
	if !raster.Equal(got, layers[0]) {
		t.Fatal("single-rank pipelined composition must be the identity")
	}
}

// TestPipelinedReportAccounting mirrors TestReportAccounting: the pipelined
// executor must account the same over-composited pixel total as the
// schedule census predicts, and the same wire traffic invariants.
func TestPipelinedReportAccounting(t *testing.T) {
	const w, h, p = 40, 30, 4
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	layers := makeLayers(rng, p, w, h, false)
	opts := pipeOptions(codec.Raw{})
	o := runInprocPipe(t, sched, layers, opts)
	o.mustFinal(t)
	census, err := schedule.Validate(sched, w*h)
	if err != nil {
		t.Fatal(err)
	}
	var over, raw, wire int64
	for r, rep := range o.reports {
		if rep == nil {
			t.Fatalf("rank %d has no report", r)
		}
		over += rep.OverPixels
		raw += rep.RawBytes
		wire += rep.WireBytes
	}
	if over != census.TotalOverPixels() {
		t.Errorf("pipelined over-pixel total = %d, census predicts %d", over, census.TotalOverPixels())
	}
	if raw == 0 || wire == 0 {
		t.Error("pipelined run reports no traffic")
	}
	// The synchronous oracle must account identically (same schedule, same
	// layers, raw codec): the pipeline changes when work happens, not what.
	sopts := Options{Codec: codec.Raw{}, GatherRoot: 0}
	so := runInprocPipe(t, sched, layers, sopts)
	so.mustFinal(t)
	var sover, sraw int64
	for _, rep := range so.reports {
		sover += rep.OverPixels
		sraw += rep.RawBytes
	}
	if over != sover || raw != sraw {
		t.Errorf("pipelined accounting (over=%d raw=%d) differs from synchronous (over=%d raw=%d)",
			over, raw, sover, sraw)
	}
}

// gateSource is a test Source: each tile's pixels become "rendered" when
// the test releases them. Shared by all ranks of an in-process run.
type gateSource struct {
	mu       sync.Mutex
	released []bool
	cond     *sync.Cond
}

func newGateSource(tiles int) *gateSource {
	g := &gateSource{released: make([]bool, tiles)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gateSource) release(tile int) {
	g.mu.Lock()
	g.released[tile] = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *gateSource) WaitTile(tile int, _ raster.Span) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.released[tile] {
		g.cond.Wait()
	}
	return nil
}

// TestPipelinedOverlapsRenderWithComposition proves the tentpole's point:
// with the last tile's render gated until the first completed tile has been
// delivered progressively, the run can only terminate if composition of
// early tiles proceeds while later tiles are still rendering. The telemetry
// spans then show the overlap: every per-tile span of the last tile starts
// after some earlier tile's span has already ended.
func TestPipelinedOverlapsRenderWithComposition(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	layers := makeLayers(rng, 4, 36, 12, true)
	want := compose.SerialComposite(layers)
	tiles := sched.Tiles
	last := tiles - 1
	gate := newGateSource(tiles)
	for tl := 0; tl < last; tl++ {
		gate.release(tl)
	}
	rec := telemetry.New()
	var releaseAt time.Duration
	var once sync.Once
	opts := pipeOptions(codec.TRLE{})
	opts.Telemetry = rec
	opts.Pipeline.Window = -1 // claim every tile so the gated one has a worker
	opts.Pipeline.Source = gate
	opts.Pipeline.OnPartial = func(f PartialFrame) {
		if f.Tile != last {
			once.Do(func() {
				releaseAt = time.Since(rec.Epoch())
				gate.release(last)
			})
		}
	}
	got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
	if !raster.Equal(got, want) {
		t.Fatalf("gated run differs from reference: maxdiff=%d", raster.MaxDiff(got, want))
	}
	if releaseAt == 0 {
		t.Fatal("no early tile was delivered progressively before the last tile rendered")
	}
	var perRank = map[int]int{}
	earlierEnded := false
	for _, sp := range rec.Spans() {
		if sp.Name != telemetry.PhaseTile {
			continue
		}
		perRank[sp.Rank]++
		if sp.Step == last && sp.Start < releaseAt {
			t.Errorf("rank %d began composing tile %d before its pixels were rendered", sp.Rank, last)
		}
		if sp.Step != last && sp.End <= releaseAt {
			earlierEnded = true
		}
	}
	for r := 0; r < sched.P; r++ {
		if perRank[r] != tiles {
			t.Errorf("rank %d recorded %d tile spans, want %d", r, perRank[r], tiles)
		}
	}
	if !earlierEnded {
		t.Error("no earlier tile finished composing before the last tile's render completed — no overlap visible")
	}
}

// TestInterleaverDeterministicPermutation: the reorder buffer must release
// a fixed message set in an order that is a pure function of the seed, and
// different seeds must produce different permutations.
func TestInterleaverDeterministicPermutation(t *testing.T) {
	type msg struct{ from, tag int }
	msgs := []msg{{1, 10}, {2, 10}, {1, 20}, {3, 30}, {0, 40}, {2, 50}}
	order := func(seed int64) []msg {
		il := newInterleaver(seed)
		for _, m := range msgs {
			il.push(m.from, m.tag, nil)
		}
		out := make([]msg, 0, len(msgs))
		for il.len() > 0 {
			f, tg, _ := il.pop()
			out = append(out, msg{f, tg})
		}
		return out
	}
	if newInterleaver(0) != nil {
		t.Fatal("seed 0 must disable the interleaver")
	}
	distinct := map[string]bool{}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		a := order(seed)
		b := order(seed)
		key := fmt.Sprint(a)
		if key != fmt.Sprint(b) {
			t.Fatalf("seed %d is not deterministic: %v vs %v", seed, a, b)
		}
		if len(a) != len(msgs) {
			t.Fatalf("seed %d lost messages: %v", seed, a)
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("five seeds produced a single permutation; the interleaver is not permuting")
	}
}

// TestPipelinedCountersGatherToRootTable: the cross-rank observability
// contract. After a pipelined run, every rank ships its summary — pipeline
// counters and latency histograms included — to rank 0 over the fabric, and
// the rank-0 StepTable must account for ALL ranks: total tiles_done equals
// p x tiles (each rank claims every tile), the in-flight peak is reported
// with busiest-rank (max) semantics, and the merged tile-latency quantiles
// appear as footnotes.
func TestPipelinedCountersGatherToRootTable(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	p := sched.P
	layers := makeLayers(rng, p, 37, 11, true)
	rec := telemetry.New()
	opts := pipeOptions(codec.TRLE{})
	opts.Telemetry = rec

	var mu sync.Mutex
	var rootSummaries []telemetry.Summary
	done := make(chan error, 1)
	go func() {
		done <- inproc.RunTel(p, rec, func(c comm.Comm) error {
			if _, _, err := Run(c, sched, layers[c.Rank()], opts); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			var seq comm.Sequencer
			sums, err := telemetry.GatherSummaries(c, &seq, 0, rec.Summary(c.Rank()), 5*time.Second)
			if err != nil {
				return fmt.Errorf("rank %d gather: %w", c.Rank(), err)
			}
			if c.Rank() == 0 {
				mu.Lock()
				rootSummaries = sums
				mu.Unlock()
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipelined gather run HUNG")
	}
	if len(rootSummaries) != p {
		t.Fatalf("rank 0 gathered %d summaries, want %d", len(rootSummaries), p)
	}

	// Every rank — not just rank 0 — must have shipped its pipeline counters.
	ctr := func(s telemetry.Summary, name string) (int64, bool) {
		for _, c := range s.Counters {
			if c.Name == name && c.Step == telemetry.StepNone {
				return c.Value, true
			}
		}
		return 0, false
	}
	for r, s := range rootSummaries {
		v, ok := ctr(s, telemetry.CtrTilesDone)
		if !ok || v != int64(sched.Tiles) {
			t.Errorf("rank %d summary: tiles_done=%d ok=%v, want %d", r, v, ok, sched.Tiles)
		}
		if v, ok := ctr(s, telemetry.CtrPipeInflightMax); !ok || v < 1 {
			t.Errorf("rank %d summary: pipe_inflight_max=%d ok=%v, want >= 1", r, v, ok)
		}
		if len(s.Hists) == 0 {
			t.Errorf("rank %d summary shipped no histogram snapshots", r)
		}
	}

	table := telemetry.StepTable(rootSummaries).String()
	wantTiles := fmt.Sprintf("%s: %d", telemetry.CtrTilesDone, p*sched.Tiles)
	if !strings.Contains(table, wantTiles) {
		t.Errorf("rank-0 table missing summed %q:\n%s", wantTiles, table)
	}
	if !strings.Contains(table, telemetry.CtrPipeInflightMax+" (busiest rank):") {
		t.Errorf("rank-0 table missing max-semantics in-flight note:\n%s", table)
	}
	if !strings.Contains(table, telemetry.HistTileLatency+": p50=") {
		t.Errorf("rank-0 table missing merged tile-latency quantiles:\n%s", table)
	}
}

// failSource renders every tile at once, except one that fails after a while.
type failSource struct {
	tile  int
	after time.Duration
	err   error
}

func (s failSource) WaitTile(tile int, _ raster.Span) error {
	if tile != s.tile {
		return nil
	}
	time.Sleep(s.after)
	return s.err
}

// TestPipelinedFatalWakesSiblings pins sibling wake-up: a worker blocked in a
// receive cannot be interrupted, so it must look at the run's stop channel
// every pipePollChunk. One rank waits forever (RecvTimeout 0) on peers that
// send nothing, in every worker but the one whose tile fails to render; that
// error must end the rank's Run within a few poll chunks. The peers are held
// back until it has, then fail on their own finite deadline.
func TestPipelinedFatalWakesSiblings(t *testing.T) {
	const failing, after = 1, 5 * pipePollChunk
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := makeLayers(rand.New(rand.NewSource(12)), sched.P, 36, 12, true)
	renderErr := errors.New("renderer lost its device")
	gate := newGateSource(sched.Tiles)
	var got error
	var took time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(sched.P, func(c comm.Comm) error {
			opts := pipeOptions(codec.TRLE{})
			opts.Pipeline.Window = -1
			if c.Rank() != failing {
				opts.RecvTimeout = 200 * time.Millisecond
				opts.Pipeline.Source = gate
				Run(c, sched, layers[c.Rank()], opts)
				return nil
			}
			opts.Pipeline.Source = failSource{tile: sched.Tiles - 1, after: after, err: renderErr}
			t0 := time.Now()
			_, _, got = Run(c, sched, layers[failing], opts)
			took = time.Since(t0)
			for tl := 0; tl < sched.Tiles; tl++ {
				gate.release(tl)
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a render failure on one tile left the rank's other workers blocked in their receives")
	}
	if !errors.Is(got, renderErr) {
		t.Fatalf("Run returned %v, want the render error", got)
	}
	if took > after+25*pipePollChunk {
		t.Fatalf("Run took %v to notice a failure %v in: siblings are woken every %v", took, after, pipePollChunk)
	}
}
