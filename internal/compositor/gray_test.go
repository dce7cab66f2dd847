package compositor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The gray-failure suite: a browned-out rank — slow but alive — must not
// change a single output byte and must not trigger a recovery epoch.

// runInprocGray is runInprocPipe generalized for gray-failure scenarios:
// options may differ per rank (each rank needs its own health
// instance) and any rank's fabric may carry a faulty middleware plan
// (e.g. a brownout). Every rank is wrapped — the middleware CRC-frames
// each payload, so framing must be symmetric across the job — and ranks
// with a nil plan get a fault-free pass-through. Watchdog is generous
// because browned-out cells intentionally run slowly.
func runInprocGray(t *testing.T, sched *schedule.Schedule, layers []*raster.Image,
	optsFor func(r int) Options, planFor func(r int) *faulty.Plan) pipeOutcome {
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
			r := c.Rank()
			plan := planFor(r)
			if plan == nil {
				plan = &faulty.Plan{}
			}
			c = faulty.Wrap(c, *plan)
			img, rep, err := Run(c, sched, layers[r], optsFor(r))
			o.finals[r] = img
			o.reports[r] = rep
			o.errs[r] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("gray run HUNG: schedule did not terminate within the watchdog")
	}
	return o
}

// sumCounter totals a named counter across all ranks and steps.
func sumCounter(rec *telemetry.Recorder, name string) int64 {
	var total int64
	for k, v := range rec.Counters() {
		if k.Name == name {
			total += v
		}
	}
	return total
}

// TestBrownoutDifferentialMatrix: with one rank browned out (every delivery
// delayed), the pipelined executor must produce an image byte-identical to
// the fault-free synchronous oracle for every schedule and codec — the
// brownout is waited out.
func TestBrownoutDifferentialMatrix(t *testing.T) {
	const p, w, h = 4, 37, 11
	const brown = 15 * time.Millisecond
	const slow = 2

	for _, m := range differentialMethods() {
		if !m.okFor(p) {
			continue
		}
		for _, cdcName := range []string{"raw", "rle", "trle"} {
			t.Run(fmt.Sprintf("%s/%s", m.name, cdcName), func(t *testing.T) {
				cdc, err := codec.ByName(cdcName)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := m.build(p)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(8000 + len(m.name)*10 + len(cdcName))))
				layers := makeLayers(rng, p, w, h, true)
				want := runInproc(t, sched, layers, cdc)

				optsFor := func(r int) Options {
					return Options{
						Codec:       cdc,
						GatherRoot:  0,
						RecvTimeout: 10 * time.Second,
						Pipeline:    PipelineConfig{Enabled: true},
					}
				}
				planFor := func(r int) *faulty.Plan {
					if r != slow {
						return nil
					}
					return &faulty.Plan{Brownout: brown}
				}
				got := runInprocGray(t, sched, layers, optsFor, planFor).mustFinal(t)
				if !raster.Equal(got, want) {
					t.Fatalf("brownout image differs from fault-free oracle: maxdiff=%d", raster.MaxDiff(got, want))
				}
			})
		}
	}
}

// TestBrownoutInterleavings drives the pipelined executor through several
// deterministic delivery interleavings and window sizes on top of the
// brownout: every release order converges on the oracle's bytes.
func TestBrownoutInterleavings(t *testing.T) {
	const p, w, h = 4, 29, 13
	cdc, err := codec.ByName("trle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8101))
	layers := makeLayers(rng, p, w, h, true)
	want := runInproc(t, sched, layers, cdc)

	seeds := []int64{1, 7, 1901}
	windows := []int{1, 2, 0}
	for i, seed := range seeds {
		window := windows[i]
		t.Run(fmt.Sprintf("seed%d/window%d", seed, window), func(t *testing.T) {
			optsFor := func(r int) Options {
				return Options{
					Codec:       cdc,
					GatherRoot:  0,
					RecvTimeout: 10 * time.Second,
					Pipeline: PipelineConfig{
						Enabled:        true,
						Window:         window,
						InterleaveSeed: seed,
					},
				}
			}
			planFor := func(r int) *faulty.Plan {
				if r != 1 {
					return nil
				}
				return &faulty.Plan{Brownout: 12 * time.Millisecond}
			}
			got := runInprocGray(t, sched, layers, optsFor, planFor).mustFinal(t)
			if !raster.Equal(got, want) {
				t.Fatalf("interleaved brownout image differs from oracle: maxdiff=%d", raster.MaxDiff(got, want))
			}
		})
	}
}

// TestRecoverNoFalseEviction is the zero-false-eviction guarantee:
// under the Recover policy with health scoring, a browned-out rank whose
// deliveries arrive after the receive deadline must be granted grace — not
// declared dead. The run must finish with no recovery epoch, no eviction,
// and bytes identical to the fault-free oracle.
func TestRecoverNoFalseEviction(t *testing.T) {
	const p, w, h = 4, 31, 9
	const brown = 120 * time.Millisecond
	cdc, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8202))
	layers := makeLayers(rng, p, w, h, true)
	want := runInproc(t, sched, layers, cdc)

	rec := telemetry.New()
	optsFor := func(r int) Options {
		return Options{
			Codec:       cdc,
			GatherRoot:  0,
			OnMissing:   Recover,
			RecvTimeout: 60 * time.Millisecond,
			Telemetry:   rec,
			// Escalation bar high enough that a brownout 2x the receive
			// deadline never reaches it: every arrival decays the score.
			Health:   gray.NewHealth(gray.HealthConfig{EscalateScore: 1000}, rec, r),
			Pipeline: PipelineConfig{Enabled: true},
		}
	}
	planFor := func(r int) *faulty.Plan {
		if r != 2 {
			return nil
		}
		return &faulty.Plan{Brownout: brown}
	}
	o := runInprocGray(t, sched, layers, optsFor, planFor)
	got := o.mustFinal(t)
	if !raster.Equal(got, want) {
		t.Fatalf("graced brownout image differs from oracle: maxdiff=%d", raster.MaxDiff(got, want))
	}
	for r, rep := range o.reports {
		if rep == nil {
			continue
		}
		if rep.Recovered || rep.RecoveryEpochs > 0 {
			t.Fatalf("rank %d: false eviction — browned-out peer was recovered (epochs=%d ranks=%v)",
				r, rep.RecoveryEpochs, rep.RecoveredRanks)
		}
	}
	if g := sumCounter(rec, telemetry.CtrDeadlineGrace); g < 1 {
		t.Fatalf("no deadline grace recorded: deadlines never fired, scenario is vacuous")
	}
	if e := sumCounter(rec, telemetry.CtrHealthEscalations); e != 0 {
		t.Fatalf("health escalated a browned-out (alive) peer %d times", e)
	}
}

// TestRecoverNoFalseEvictionAcrossFrames is the same guarantee over a run of
// frames, with the configuration a long-lived node uses (cmd/rtnode): one
// gray.Health per rank kept across frames, at the default escalation bar.
// Grace only works if every arrival decays the sender's score — on the step
// path, the gather and the replica exchange alike; an executor that records
// the misses but not the arrivals climbs 3 points a deadline and evicts the
// slow-but-alive rank a frame or two in, then again on every frame after.
// Both executors run the same step loop and the same policy, so both rows
// must hold.
func TestRecoverNoFalseEvictionAcrossFrames(t *testing.T) {
	const p, w, h, frames = 4, 31, 9, 4
	const brown = 100 * time.Millisecond
	cdc, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8203))
	layers := makeLayers(rng, p, w, h, true)
	want := runInproc(t, sched, layers, cdc)

	for _, mode := range []struct {
		name      string
		pipelined bool
	}{{"synchronous", false}, {"pipelined", true}} {
		t.Run(mode.name, func(t *testing.T) {
			rec := telemetry.New()
			health := make([]*gray.Health, p)
			for r := range health {
				health[r] = gray.NewHealth(gray.HealthConfig{}, rec, r)
			}
			optsFor := func(r int) Options {
				return Options{
					Codec:       cdc,
					GatherRoot:  0,
					OnMissing:   Recover,
					RecvTimeout: 60 * time.Millisecond,
					Telemetry:   rec,
					Health:      health[r],
					Pipeline:    PipelineConfig{Enabled: mode.pipelined},
				}
			}
			planFor := func(r int) *faulty.Plan {
				if r != 2 {
					return nil
				}
				return &faulty.Plan{Brownout: brown}
			}
			for f := 0; f < frames; f++ {
				o := runInprocGray(t, sched, layers, optsFor, planFor)
				if got := o.mustFinal(t); !raster.Equal(got, want) {
					t.Fatalf("frame %d: graced brownout image differs from oracle: maxdiff=%d", f, raster.MaxDiff(got, want))
				}
				for r, rep := range o.reports {
					if rep != nil && (rep.Recovered || rep.RecoveryEpochs > 0) {
						t.Fatalf("frame %d rank %d: false eviction — browned-out peer was recovered (epochs=%d ranks=%v, rank 0 scores it %.1f)",
							f, r, rep.RecoveryEpochs, rep.RecoveredRanks, health[0].Score(2))
					}
				}
			}
			if g := sumCounter(rec, telemetry.CtrDeadlineGrace); g < 1 {
				t.Fatalf("no deadline grace recorded: deadlines never fired, scenario is vacuous")
			}
			if e := sumCounter(rec, telemetry.CtrHealthEscalations); e != 0 {
				t.Fatalf("health escalated a browned-out (alive) peer %d times over %d frames", e, frames)
			}
		})
	}
}

// TestPipelinedDeadlineRulesOncePerSilence pins the one deadline authority of
// a pipelined rank. Its tile workers wait on the same slow peer at once and
// their deadlines expire together; that silence is one deadline hit, one
// Health miss per suspect and one grace decision, as in the synchronous run
// — not one per worker, which would climb the peer's score a window's worth
// per silence and evict a rank that is only slow. Both executors run the
// same browned-out frames under Recover with health scoring, window 4. The
// columns do not wait in the same places — a tile's step is not a rank's —
// so their counts agree only roughly (12 hits against 12 to 14 as written);
// a worker-per-deadline build counts a window's multiple, and evicts.
func TestPipelinedDeadlineRulesOncePerSilence(t *testing.T) {
	const p, w, h, frames = 4, 31, 9, 2
	const brown = 100 * time.Millisecond
	cdc, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8204))
	layers := makeLayers(rng, p, w, h, true)
	want := runInproc(t, sched, layers, cdc)

	type tally struct{ hits, grace, misses int64 }
	column := func(t *testing.T, pipelined bool) tally {
		rec := telemetry.New()
		health := make([]*gray.Health, p)
		for r := range health {
			health[r] = gray.NewHealth(gray.HealthConfig{}, rec, r)
		}
		optsFor := func(r int) Options {
			return Options{
				Codec:       cdc,
				GatherRoot:  0,
				OnMissing:   Recover,
				RecvTimeout: 60 * time.Millisecond,
				Telemetry:   rec,
				Health:      health[r],
				Pipeline:    PipelineConfig{Enabled: pipelined, Window: 4},
			}
		}
		planFor := func(r int) *faulty.Plan {
			if r != 2 {
				return nil
			}
			return &faulty.Plan{Brownout: brown}
		}
		for f := 0; f < frames; f++ {
			o := runInprocGray(t, sched, layers, optsFor, planFor)
			if got := o.mustFinal(t); !raster.Equal(got, want) {
				t.Fatalf("frame %d: image differs from oracle: maxdiff=%d", f, raster.MaxDiff(got, want))
			}
			for r, rep := range o.reports {
				if rep != nil && (rep.Recovered || rep.RecoveryEpochs > 0) {
					t.Fatalf("frame %d rank %d: false eviction (epochs=%d ranks=%v)", f, r, rep.RecoveryEpochs, rep.RecoveredRanks)
				}
			}
		}
		out := tally{hits: sumCounter(rec, telemetry.CtrDeadlineHits), grace: sumCounter(rec, telemetry.CtrDeadlineGrace)}
		for _, hl := range health {
			out.misses += hl.Misses()
		}
		if e := sumCounter(rec, telemetry.CtrHealthEscalations); e != 0 {
			t.Fatalf("health escalated a browned-out (alive) peer %d times", e)
		}
		return out
	}
	sync := column(t, false)
	pipe := column(t, true)
	t.Logf("synchronous %+v, pipelined %+v", sync, pipe)
	if pipe.hits < 1 || sync.hits < 1 {
		t.Fatalf("no deadline fired (synchronous %+v, pipelined %+v): the scenario is vacuous", sync, pipe)
	}
	if pipe.hits != pipe.grace || sync.hits != sync.grace {
		t.Fatalf("a deadline was ruled without a grace decision: synchronous %+v, pipelined %+v", sync, pipe)
	}
	if pipe.hits > 2*sync.hits || pipe.misses > 2*sync.misses {
		t.Fatalf("the pipelined run ruled on its silences more than once: %+v against the synchronous %+v", pipe, sync)
	}
}

// TestBrownoutFramesDoNotLeak pins cross-frame hygiene on a long-lived mesh:
// tags repeat every frame, so a message of frame 1 still in a mailbox when
// frame 2 starts would be found under frame 2's tags and frame 1's pixels
// composited. Two frames with different layers run over one fabric with one
// browned-out rank, each equal to its own oracle.
func TestBrownoutFramesDoNotLeak(t *testing.T) {
	const p, w, h, slow = 4, 37, 11, 2
	cdc, err := codec.ByName("trle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Codec:       cdc,
		GatherRoot:  0,
		RecvTimeout: 10 * time.Second,
		Pipeline:    PipelineConfig{Enabled: true, Window: -1},
	}
	fabric := inproc.New(p)
	eps := make([]comm.Comm, p)
	for r := range eps {
		plan := faulty.Plan{}
		if r == slow {
			plan.Brownout = 150 * time.Millisecond
		}
		eps[r] = faulty.Wrap(fabric.Endpoint(r), plan)
	}
	for frame := 0; frame < 2; frame++ {
		layers := makeLayers(rand.New(rand.NewSource(int64(8500+frame))), p, w, h, true)
		want := runInproc(t, sched, layers, cdc)
		finals := make([]*raster.Image, p)
		errs := make([]error, p)
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for r := range eps {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					finals[r], _, errs[r] = Run(eps[r], sched, layers[r], opts)
				}(r)
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("frame %d HUNG", frame)
		}
		for r, err := range errs {
			if err != nil {
				t.Fatalf("frame %d rank %d: %v", frame, r, err)
			}
		}
		if !raster.Equal(finals[0], want) {
			t.Fatalf("frame %d differs from its own oracle (maxdiff=%d): a message of the frame before was served under this frame's tag",
				frame, raster.MaxDiff(finals[0], want))
		}
	}
}
