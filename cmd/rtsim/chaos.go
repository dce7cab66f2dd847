package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"os"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/trace"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// chaosConfig parameterises one fault-injected composition run.
type chaosConfig struct {
	sched  *schedule.Schedule
	layers []*raster.Image
	cdc    codec.Codec

	seed      int64
	drop      float64
	resend    int
	delayProb float64
	maxDelay  time.Duration
	dup       float64
	corrupt   float64
	dieAfter  int
	// dieAfter applies to the last rank only, so the run demonstrates the
	// survivors' behaviour rather than killing everyone.

	// Gray failure: brownout delays every delivery from one seeded-random
	// non-root rank (slow, not dead) and gives every rank a health tracker.
	// A brownout run that evicts the slow rank is a failure — the whole
	// point is waiting slowness out without declaring death.
	brownout time.Duration

	recvTimeout   time.Duration
	onMissing     string
	maxRecoveries int // re-execution budget of the recover policy

	// Self-healing knobs: spare launches a standby for the killed rank's
	// slot that rejoins via merkle-verified state transfer (the run must end
	// REJOINED, not RECOVERED); rejoinTimeout bounds how long the survivors
	// hold the door open; scrub re-hashes buddy replicas after the exchange
	// and repairs silent corruption from the live copy.
	spare         bool
	rejoinTimeout time.Duration
	scrub         bool

	traceOut     string // write the real run's telemetry as Chrome trace JSON
	tracePerRank bool   // split -trace-out into per-rank -rNN files (rttrace merge input)
	gantt        bool   // print the per-rank span occupancy chart
	pipeline     bool   // run the per-tile pipelined compositor
}

// runChaos executes the schedule for real on the in-process fabric with
// every rank's endpoint wrapped in the fault-injection middleware, then
// reports whether the composition survived: a correct image, a flagged
// degraded image, or a typed per-rank error — never a hang.
func runChaos(cc chaosConfig) error {
	policy, err := compositor.ParsePolicy(cc.onMissing)
	if err != nil {
		return err
	}
	p := cc.sched.P
	plan := faulty.Plan{
		Seed: cc.seed, Drop: cc.drop, MaxResend: cc.resend,
		DelayProb: cc.delayProb, MaxDelay: cc.maxDelay,
		DupProb: cc.dup, CorruptProb: cc.corrupt,
	}
	// Rendered partials carry general alpha, where u8 over is associative
	// only up to rounding; compare against the float-accumulated reference
	// with the same +-2 level tolerance the correctness suite uses.
	want := compose.SerialCompositeF(cc.layers)
	const tol = 2

	rec := telemetry.New()
	plan.Telemetry = rec
	var mu sync.Mutex
	var final *raster.Image
	reports := make([]*compositor.Report, p)
	rankErrs := make([]error, p)
	stats := make([]faulty.Stats, p)
	t0 := time.Now()
	// RunTel hands the fabric the recorder, so every message carries a
	// trace context and leaves send/recv flow edges for the trace export.
	// The browned-out rank is seeded-random but never the gather root: the
	// root waiting on itself would mask nothing interesting.
	slow := -1
	if cc.brownout > 0 && p >= 2 {
		slow = 1 + rand.New(rand.NewSource(cc.seed)).Intn(p-1)
	}
	mkOpts := func(rank int) compositor.Options {
		opts := compositor.Options{
			Codec:         cc.cdc,
			GatherRoot:    0,
			RecvTimeout:   cc.recvTimeout,
			OnMissing:     policy,
			MaxRecoveries: cc.maxRecoveries,
			RejoinTimeout: cc.rejoinTimeout,
			ScrubReplicas: cc.scrub,
			Telemetry:     rec,
			Pipeline: compositor.PipelineConfig{
				Enabled:        cc.pipeline,
				InterleaveSeed: cc.seed,
			},
		}
		if cc.brownout > 0 {
			opts.Health = gray.NewHealth(gray.HealthConfig{}, rec, rank)
		}
		return opts
	}
	runRank := func(inner comm.Comm) error {
		rankPlan := plan
		if cc.dieAfter > 0 && inner.Rank() == p-1 {
			rankPlan.DieAfterSends = cc.dieAfter
		}
		if inner.Rank() == slow {
			rankPlan.Brownout = cc.brownout
			// The brownout sets in after the rank's first send, so setup
			// traffic (notably its replica, under -on-missing recover) lands
			// on time — modelling a mid-run onset rather than a rank that was
			// slow from birth.
			rankPlan.BrownoutAfterSends = 1
		}
		ep := faulty.Wrap(inner, rankPlan)
		img, rep, err := compositor.Run(ep, cc.sched, cc.layers[inner.Rank()], mkOpts(inner.Rank()))
		mu.Lock()
		defer mu.Unlock()
		reports[inner.Rank()] = rep
		rankErrs[inner.Rank()] = err
		stats[inner.Rank()] = ep.Stats()
		if img != nil {
			final = img
		}
		return nil
	}
	var spareRep *compositor.Report
	var spareErr error
	if cc.spare {
		// A standby is registered for the victim's slot, so the fabric is
		// managed by hand: the victim's rank slot gets a fresh mailbox after
		// its incarnation dies, and the spare rejoins through the
		// merkle-verified transfer while the survivors hold the frame open.
		fab := inproc.New(p)
		fab.SetTelemetry(rec)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ep := fab.Endpoint(r)
				_ = runRank(ep)
				ep.Close()
				if r != p-1 || cc.dieAfter <= 0 {
					return
				}
				sep := fab.Reattach(r)
				sp := faulty.Wrap(sep, plan) // the framing layer, no kill
				img, rep, err := compositor.RunSpare(sp, cc.sched, mkOpts(r))
				sep.Close()
				mu.Lock()
				defer mu.Unlock()
				spareRep, spareErr = rep, err
				if img != nil {
					final = img
				}
			}(r)
		}
		wg.Wait()
	} else {
		inproc.RunTel(p, rec, runRank)
	}
	elapsed := time.Since(t0)

	fmt.Printf("chaos: method=%s p=%d seed=%d drop=%g resend=%d delay=%g dup=%g corrupt=%g die-after=%d policy=%s pipeline=%v\n",
		cc.sched.Name, p, cc.seed, cc.drop, cc.resend, cc.delayProb, cc.dup, cc.corrupt, cc.dieAfter, policy, cc.pipeline)
	var tot faulty.Stats
	for _, s := range stats {
		tot.Dropped += s.Dropped
		tot.Lost += s.Lost
		tot.Resent += s.Resent
		tot.Delayed += s.Delayed
		tot.Duplicated += s.Duplicated
		tot.Corrupted += s.Corrupted
		tot.RejectedCRC += s.RejectedCRC
	}
	fmt.Printf("chaos: injected %d drop(s) (%d lost, %d resends), %d delay(s), %d dup(s), %d corruption(s), %d CRC reject(s)\n",
		tot.Dropped, tot.Lost, tot.Resent, tot.Delayed, tot.Duplicated, tot.Corrupted, tot.RejectedCRC)

	// Under the recover policy the intentionally killed rank is expected to
	// die with a typed error; only survivor errors count as failure.
	victim := -1
	if policy == compositor.Recover && cc.dieAfter > 0 {
		victim = p - 1
	}
	failed := 0
	for r, err := range rankErrs {
		if err != nil {
			if r == victim {
				fmt.Printf("chaos: rank %d (victim) died as planned: %v\n", r, err)
				continue
			}
			failed++
			fmt.Printf("chaos: rank %d error: %v\n", r, err)
		}
	}
	allReports := reports
	if cc.spare {
		if spareErr != nil {
			failed++
			fmt.Printf("chaos: spare for rank %d error: %v\n", p-1, spareErr)
		} else if spareRep != nil {
			allReports = append(append([]*compositor.Report(nil), reports...), spareRep)
		}
	}
	degraded := false
	recovered := false
	rejoined := false
	epochs := 0
	evicted := map[int]bool{}
	for _, rep := range allReports {
		if rep == nil {
			continue
		}
		if rep.Rejoined {
			rejoined = true
			fmt.Printf("chaos: rank %d rejoined: slot(s) %v re-admitted over %d join round(s)\n",
				rep.Rank, rep.RejoinedRanks, rep.RejoinEpochs)
		}
		if rep.Degraded {
			degraded = true
			fmt.Printf("chaos: rank %d degraded: %d missing transfer(s), %d blank layer-pixel(s), %d missing gather(s)\n",
				rep.Rank, rep.MissingTransfers, rep.MissingLayerPix, rep.MissingGathers)
		}
		if rep.Recovered {
			recovered = true
			if rep.RecoveryEpochs > epochs {
				epochs = rep.RecoveryEpochs
			}
			for _, r := range rep.RecoveredRanks {
				evicted[r] = true
			}
			fmt.Printf("chaos: rank %d recovered: %d epoch(s), replicas stood in for rank(s) %v\n",
				rep.Rank, rep.RecoveryEpochs, rep.RecoveredRanks)
		}
	}
	sum := func(name string) int64 {
		var n int64
		for k, v := range rec.Counters() {
			if k.Name == name {
				n += v
			}
		}
		return n
	}
	if slow >= 0 {
		// One greppable line for the CI brownout job: the grace counters,
		// and how many ranks were actually evicted.
		fmt.Printf("# gray: slow-rank=%d brownout=%v grace=%d escalations=%d evictions=%d\n",
			slow, cc.brownout,
			sum(telemetry.CtrDeadlineGrace), sum(telemetry.CtrHealthEscalations),
			len(evicted))
	}
	// A brownout is slow-not-dead: evicting the slow rank (absent a real
	// victim) means the gray-failure machinery false-positived.
	if slow >= 0 && victim < 0 && evicted[slow] {
		return fmt.Errorf("chaos: browned-out rank %d was FALSELY EVICTED (slow, not dead)", slow)
	}
	if cc.spare || cc.rejoinTimeout > 0 || cc.scrub {
		// One greppable line for the CI self-healing job: join and scrub
		// counters, and how many ranks ended the frame evicted. A healed run
		// verifies every transferred chunk and evicts nobody.
		fmt.Printf("# rejoin: spare=%v rejoins=%d rejoin_verified_chunks=%d rejoin_rejected_chunks=%d scrub_ok=%d scrub_repaired=%d scrub_failed=%d evictions=%d\n",
			cc.spare, sum(telemetry.CtrRejoins),
			sum(telemetry.CtrRejoinVerifiedChunks), sum(telemetry.CtrRejoinRejectedChunks),
			sum(telemetry.CtrScrubOK), sum(telemetry.CtrScrubRepaired), sum(telemetry.CtrScrubFailed),
			len(evicted))
	}
	// The real run's telemetry: per-step timing/bytes table aggregated
	// across ranks, optional span Gantt and Chrome trace export.
	fmt.Println()
	fmt.Print(telemetry.StepTable(rec.Summaries(p)))
	if cc.gantt {
		fmt.Println()
		fmt.Print(trace.SpanGantt(rec.Spans(), p, 96))
	}
	if cc.traceOut != "" {
		if err := writeChaosTraces(rec, cc.traceOut, cc.tracePerRank, p); err != nil {
			return err
		}
	}
	// The black box of anything that went wrong: a failed rank or a
	// recovery carries its recent event history onto stdout, the same dump
	// a FailFast stall embeds in its error.
	if (failed > 0 || recovered) && rec.FlightDump() != "" {
		fmt.Println()
		fmt.Println(rec.FlightDump())
	}

	switch {
	case failed > 0:
		fmt.Printf("chaos: FAILED CLEANLY in %v — %d rank(s) returned typed errors, no hang\n", elapsed, failed)
		if victim >= 0 {
			return fmt.Errorf("chaos: %d survivor(s) errored under the recover policy", failed)
		}
	case final == nil:
		fmt.Printf("chaos: no final image in %v\n", elapsed)
		if victim >= 0 {
			return fmt.Errorf("chaos: recover policy delivered no image")
		}
	case rejoined && raster.MaxDiff(final, want) <= tol:
		fmt.Printf("chaos: REJOINED in %v — mesh healed at full capacity, image matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, raster.MaxDiff(final, want), tol)
	case recovered && raster.MaxDiff(final, want) <= tol:
		fmt.Printf("chaos: RECOVERED in %v — %d re-executed epoch(s), image matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, epochs, raster.MaxDiff(final, want), tol)
	case degraded:
		fmt.Printf("chaos: DEGRADED image composed in %v (maxdiff vs reference: %d)\n",
			elapsed, raster.MaxDiff(final, want))
	case raster.MaxDiff(final, want) <= tol:
		if victim >= 0 {
			// A victim was configured but nobody recovered: the kill never
			// fired (die-after beyond the send count) or went unnoticed —
			// either way the CI invariant did not get exercised.
			return fmt.Errorf("chaos: image is complete but no rank flagged Recovered with a victim configured")
		}
		fmt.Printf("chaos: SURVIVED in %v — image matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, raster.MaxDiff(final, want), tol)
	default:
		return fmt.Errorf("chaos: composed image DIFFERS from the fault-free composite (maxdiff %d > %d) without being flagged degraded",
			raster.MaxDiff(final, want), tol)
	}
	return nil
}

// writeChaosTraces exports the run's spans and causal flow edges as Chrome
// trace JSON: one shared file, or (perRank) one -rNN file per rank holding
// only that rank's events — the input shape of an rttrace merge, which the
// CI trace-smoke job stitches back together and validates.
func writeChaosTraces(rec *telemetry.Recorder, path string, perRank bool, p int) error {
	spans, flows := rec.Spans(), rec.Flows()
	if !perRank {
		if err := writeTraceFile(path, spans, flows); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans, %d flow events) — open in chrome://tracing or ui.perfetto.dev\n",
			path, len(spans), len(flows))
		return nil
	}
	for r := 0; r < p; r++ {
		var rs []telemetry.Span
		for _, s := range spans {
			if s.Rank == r {
				rs = append(rs, s)
			}
		}
		var rf []telemetry.Flow
		for _, f := range flows {
			if f.Rank == r {
				rf = append(rf, f)
			}
		}
		rp := rankedPath(path, r)
		if err := writeTraceFile(rp, rs, rf); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans, %d flow events)\n", rp, len(rs), len(rf))
	}
	fmt.Printf("merge with: rttrace -o merged.json %s\n", rankedPath(path, 0))
	return nil
}

func writeTraceFile(path string, spans []telemetry.Span, flows []telemetry.Flow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.WriteChromeSpansFlows(f, spans, flows)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// rankedPath inserts a rank suffix before the extension:
// trace.json -> trace-r03.json.
func rankedPath(base string, rank int) string {
	ext := ""
	stem := base
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		stem, ext = base[:i], base[i:]
	}
	return fmt.Sprintf("%s-r%02d%s", stem, rank, ext)
}
