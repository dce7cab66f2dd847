package compositor

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The gray-failure suite: a browned-out rank — slow but alive — must not
// change a single output byte and must not trigger a recovery epoch.

// runInprocGray is runInprocPipe generalized for gray-failure scenarios:
// options may differ per rank and any rank's fabric may carry a faulty middleware plan
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

// grayFlights counts a recorder's FlightGray events about peer whose note
// starts with prefix ("peer gray", "peer recovered").
func grayFlights(rec *telemetry.Recorder, peer int, prefix string) int {
	n := 0
	for _, ev := range rec.FlightEvents() {
		if ev.Kind == telemetry.FlightGray && ev.Peer == peer && strings.HasPrefix(ev.Note, prefix) {
			n++
		}
	}
	return n
}

// TestGraceTable is the grace rule of a Recover run, executed: a sequence of
// deadlines counted against one peer ('m') and arrivals from it ('a') goes
// through the run's failPolicy and rexec, and each deadline's verdict, the
// gray flights and the counters must be what the rule in silences gives by
// hand — a deadline adds one, an arrival halves, gray at 2, clear below 1,
// escalate at 6.
func TestGraceTable(t *testing.T) {
	const me, p, peer = 0, 4, 2
	for _, row := range []struct {
		name              string
		grace             bool
		seq               string // 'm': a deadline with peer the suspect; 'a': an arrival from peer
		verdicts          string // per deadline: 'w' keepWaiting (grace), 'x' abortAttempt
		gray, recovered   int    // "peer gray" and "peer recovered" flights about peer; peer_gray = gray
		graced, escalated int64  // deadline_grace, health_escalations
	}{
		{"one miss is not gray", true, "m", "w", 0, 0, 1, 0},
		{"two misses are gray", true, "mm", "ww", 1, 0, 2, 0},
		{"misses 1-5 get grace and the sixth escalates", true, "mmmmmm", "wwwwwx", 1, 0, 5, 1},
		// 5 -> 2.5 at the arrival, then 3.5, 4.5, 5.5, 6.5.
		{"an arrival halves the count", true, "mmmmmammmm", "wwwwwwwwx", 1, 0, 8, 1},
		// The count after a miss climbs 1, 1.5, 1.75, ... towards 2 and
		// rounds to 2 at the 54th, flagging the peer gray once and for good;
		// it never nears 6.
		{"(miss, arrival) x 100 never escalates", true, strings.Repeat("ma", 100), strings.Repeat("w", 100), 1, 0, 100, 0},
		// 2 -> 1 (still gray) -> 0.5 (clear).
		{"two arrivals after two misses clear gray", true, "mmaa", "ww", 1, 1, 2, 0},
		{"grace off counts nothing", false, "mmmmmmaa", "xxxxxx", 0, 0, 0, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			rec := telemetry.New()
			opts := Options{OnMissing: Recover, Grace: row.grace, Telemetry: rec}
			rx := newRexec(&noticeComm{rank: me, size: p}, nil, nil, opts, nil, &Report{Rank: me}, comm.NewMembership(p))
			defer rx.scr.release()
			if (rx.silences != nil) != row.grace {
				t.Fatalf("Grace=%v built silence counts %v", row.grace, rx.silences)
			}
			var verdicts []byte
			for _, ev := range row.seq {
				if ev == 'a' {
					rx.pol.rx.arrived(peer)
					continue
				}
				switch v := rx.pol.on(evDeadline, &comm.DeadlineError{Rank: me}, []int{peer}); v {
				case keepWaiting:
					verdicts = append(verdicts, 'w')
				case abortAttempt:
					verdicts = append(verdicts, 'x')
				default:
					t.Fatalf("deadline %d: verdict %d", len(verdicts)+1, v)
				}
			}
			if string(verdicts) != row.verdicts {
				t.Fatalf("verdicts %s, want %s", verdicts, row.verdicts)
			}
			type tally struct {
				gray, recovered, peerGray int
				graced, escalated         int64
			}
			got := tally{grayFlights(rec, peer, "peer gray"), grayFlights(rec, peer, "peer recovered"),
				int(sumCounter(rec, telemetry.CtrPeerGray)),
				sumCounter(rec, telemetry.CtrDeadlineGrace), sumCounter(rec, telemetry.CtrHealthEscalations)}
			if want := (tally{row.gray, row.recovered, row.gray, row.graced, row.escalated}); got != want {
				t.Fatalf("tallies %+v, want %+v", got, want)
			}
		})
	}
}

// TestArrivalsHalveOnEveryPath: grace holds only if every arrival halves the
// sender's silence count — on the step path and in the gather alike. A path
// that skips it lets a slow peer climb one silence a deadline until a long
// enough run evicts it, yet one frame of the brownout suites seldom reaches
// the bar, so the paths are pinned here: two ranks run epoch 0 of a Recover
// attempt by hand (one binary-swap step, the gather to rank 0), each
// starting eight silences deep against the other, and the count must halve
// once per message.
func TestArrivalsHalveOnEveryPath(t *testing.T) {
	const p, w, h = 2, 16, 4
	cdc, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.BinarySwap(p)
	if err != nil {
		t.Fatal(err)
	}
	layers := makeLayers(rand.New(rand.NewSource(8205)), p, w, h, true)
	left := make([]float64, p) // per rank: the count after the step and gather
	errs := make([]error, p)
	inproc.Run(p, func(c comm.Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		opts := Options{Codec: cdc, OnMissing: Recover, RecvTimeout: 10 * time.Second, Grace: true}
		rx := newRexec(c, sched, layers[me], opts, cdc, &Report{Rank: me}, comm.NewMembership(p))
		defer rx.scr.release()
		rx.silences[peer].n = 8
		_, errs[me] = runSync(rx.c, sched, layers[me], nil, opts, cdc, rx.rep, rx.pol, attempt{}, rx.scr)
		left[me] = rx.silences[peer].n
		return nil
	})
	// Rank 0 hears the other rank's step block and gather message; rank 1
	// its step block.
	for r, want := range []float64{2, 4} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if left[r] != want {
			t.Fatalf("rank %d: silence count %v after the run, want %v", r, left[r], want)
		}
	}
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
// under the Recover policy with grace, a browned-out rank whose
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
			Grace:       true,
			Pipeline:    PipelineConfig{Enabled: true},
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
// frames, each a Recover run with grace as a long-lived node runs them
// (cmd/rtnode). Grace only works if every arrival halves the sender's
// silence count — on the step path and the gather alike; an executor that counts the deadlines but not the arrivals climbs
// one silence a deadline and evicts the slow-but-alive rank.
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
			optsFor := func(r int) Options {
				return Options{
					Codec:       cdc,
					GatherRoot:  0,
					OnMissing:   Recover,
					RecvTimeout: 60 * time.Millisecond,
					Telemetry:   rec,
					Grace:       true,
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
						t.Fatalf("frame %d rank %d: false eviction — browned-out peer was recovered (epochs=%d ranks=%v)",
							f, r, rep.RecoveryEpochs, rep.RecoveredRanks)
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
// silence counted per suspect and one grace decision, as in the synchronous
// run — not one per worker, which would climb the peer's count a window's
// worth per silence and evict a rank that is only slow. Both executors run
// the same browned-out frames under Recover with grace, window 4. The
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

	type tally struct{ hits, grace int64 }
	column := func(t *testing.T, pipelined bool) tally {
		rec := telemetry.New()
		optsFor := func(r int) Options {
			return Options{
				Codec:       cdc,
				GatherRoot:  0,
				OnMissing:   Recover,
				RecvTimeout: 60 * time.Millisecond,
				Telemetry:   rec,
				Grace:       true,
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
	if pipe.hits > 2*sync.hits {
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
