package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/trace"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
)

// chaosConfig parameterises one fault-injected composition run.
type chaosConfig struct {
	sched  *schedule.Schedule
	layers []*raster.Image
	cdc    codec.Codec

	// plan is every rank's message-fault mix on the in-process fabric; its
	// Seed also seeds the brownout victim, the connection cuts and the
	// compositor's receive interleaver.
	plan faulty.Plan
	// dieAfter kills the last rank after that many sends, so the run
	// demonstrates the survivors' behaviour rather than killing everyone.
	dieAfter int
	// Gray failure: brownout delays every delivery from one seeded-random
	// non-root rank (slow, not dead) and gives every rank a health tracker.
	// A brownout run that evicts the slow rank is a failure — the whole
	// point is waiting slowness out without declaring death.
	brownout time.Duration
	// cuts > 0 runs over a loopback TCP mesh instead and severs that many
	// live connections at seeded-random step boundaries. The session layer
	// must hide every one: any rank error, degradation or recovery fails.
	cuts int

	recvTimeout   time.Duration
	policy        compositor.Policy
	maxRecoveries int // re-execution budget of the recover policy

	// spare launches a standby for the killed rank's slot that takes its
	// own layer and rejoins (the run must end REJOINED, not RECOVERED).
	spare bool

	traceOut     string // write the real run's telemetry as Chrome trace JSON
	tracePerRank bool   // split -trace-out into per-rank -rNN files (rttrace merge input)
	gantt        bool   // print the per-rank span occupancy chart
	pipeline     bool   // run the per-tile pipelined compositor
}

// runChaos executes the schedule for real — on the in-process fabric with
// every rank wrapped in the fault-injection middleware, or on a loopback TCP
// mesh whose connections are cut — then reports whether the composition
// survived: a correct image, a flagged degraded image, or a typed per-rank
// error — never a hang.
func runChaos(cc chaosConfig) error {
	p := cc.sched.P
	tcp := cc.cuts > 0
	// Rendered partials carry general alpha, where u8 over is associative
	// only up to rounding; compare against the float-accumulated reference
	// with the same +-2 level tolerance the correctness suite uses.
	want := compose.SerialCompositeF(cc.layers)
	const tol = 2

	rec := telemetry.New()
	cc.plan.Telemetry = rec
	// The browned-out rank is seeded-random but never the gather root: the
	// root waiting on itself would mask nothing interesting.
	slow := -1
	if cc.brownout > 0 && p >= 2 && !tcp {
		slow = 1 + rand.New(rand.NewSource(cc.plan.Seed)).Intn(p-1)
	}
	// Under the recover policy the intentionally killed rank is expected to
	// die with a typed error; only survivor errors count as failure.
	victim := -1
	if cc.policy == compositor.Recover && cc.dieAfter > 0 {
		victim = p - 1
	}

	// Slot p holds the spare's outcome.
	var mu sync.Mutex
	var final *raster.Image
	var injected faulty.Stats
	reports := make([]*compositor.Report, p+1)
	rankErrs := make([]error, p+1)
	runRank := func(slot int, c comm.Comm, spare bool, onStep func(int)) error {
		opts := compositor.Options{
			Codec:         cc.cdc,
			GatherRoot:    0,
			RecvTimeout:   cc.recvTimeout,
			OnMissing:     cc.policy,
			MaxRecoveries: cc.maxRecoveries,
			Rebuild:       func(r int) (*raster.Image, error) { return cc.layers[r], nil },
			Grace:         slow >= 0,
			Telemetry:     rec,
			OnStep:        onStep,
			Pipeline:      compositor.PipelineConfig{Enabled: cc.pipeline, InterleaveSeed: cc.plan.Seed},
		}
		var img *raster.Image
		var rep *compositor.Report
		var err error
		if spare {
			opts.RejoinTimeout = 10 * cc.recvTimeout // the spare's admission window
			img, rep, err = compositor.RunSpare(c, cc.sched, opts)
		} else {
			img, rep, err = compositor.Run(c, cc.sched, cc.layers[c.Rank()], opts)
		}
		mu.Lock()
		defer mu.Unlock()
		reports[slot], rankErrs[slot] = rep, err
		if img != nil {
			final = img
		}
		return err
	}

	t0 := time.Now()
	var severed atomic.Int64
	if tcp {
		type cut struct{ step, cutter, victim int }
		rng := rand.New(rand.NewSource(cc.plan.Seed))
		cuts := make([]cut, cc.cuts)
		for i := range cuts {
			cutter := rng.Intn(p)
			victim := rng.Intn(p - 1)
			if victim >= cutter {
				victim++
			}
			cuts[i] = cut{step: rng.Intn(cc.sched.NumSteps()), cutter: cutter, victim: victim}
		}
		// A rank error fails the run but stays in rankErrs for the report, so
		// fn returns nil and closes a failed rank's endpoint itself.
		err := tcpnet.Run(p, tcpnet.Config{DialTimeout: 30 * time.Second, Telemetry: rec}, func(ep *tcpnet.Endpoint) error {
			err := runRank(ep.Rank(), ep, false, func(si int) {
				for _, c := range cuts {
					if c.cutter == ep.Rank() && c.step == si && ep.CutConn(c.victim) {
						severed.Add(1)
						fmt.Printf("chaos: step %d: rank %d severed its connection to rank %d\n", si, c.cutter, c.victim)
					}
				}
			})
			if err != nil {
				ep.Close()
			}
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		// The mesh ends as inproc.Run's does: a failed rank — the killed one
		// among them — closes its endpoint at once, the rest stay reachable
		// until every rank has returned. The killed rank's slot gets a fresh
		// mailbox after its incarnation dies, so a spare can rejoin while the
		// survivors hold the frame open.
		fab := inproc.New(p)
		fab.SetTelemetry(rec)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				plan := cc.plan
				if r == p-1 {
					plan.DieAfterSends = cc.dieAfter
				}
				if r == slow {
					// The brownout sets in after the rank's first send, so
					// its first block lands on time — a mid-run onset rather
					// than a rank that was slow from birth.
					plan.Brownout, plan.BrownoutAfterSends = cc.brownout, 1
				}
				ep := fab.Endpoint(r)
				fep := faulty.Wrap(ep, plan)
				if runRank(r, fep, false, nil) != nil {
					ep.Close()
				}
				st := fep.Stats()
				mu.Lock()
				injected.Dropped += st.Dropped
				injected.Lost += st.Lost
				injected.Resent += st.Resent
				injected.Delayed += st.Delayed
				injected.Duplicated += st.Duplicated
				injected.Corrupted += st.Corrupted
				injected.RejectedCRC += st.RejectedCRC
				mu.Unlock()
				if cc.spare && r == p-1 && cc.dieAfter > 0 {
					sep := fab.Reattach(r)
					if runRank(p, faulty.Wrap(sep, cc.plan), true, nil) != nil { // the framing layer, no kill
						sep.Close()
					}
				}
			}(r)
		}
		wg.Wait()
		fab.Close()
	}
	elapsed := time.Since(t0)

	if tcp {
		fmt.Printf("chaos: conn-reset method=%s p=%d seed=%d planned-cuts=%d severed=%d pipeline=%v\n",
			cc.sched.Name, p, cc.plan.Seed, cc.cuts, severed.Load(), cc.pipeline)
	} else {
		fmt.Printf("chaos: method=%s p=%d seed=%d drop=%g resend=%d delay=%g dup=%g corrupt=%g die-after=%d policy=%s pipeline=%v\n",
			cc.sched.Name, p, cc.plan.Seed, cc.plan.Drop, cc.plan.MaxResend, cc.plan.DelayProb, cc.plan.DupProb,
			cc.plan.CorruptProb, cc.dieAfter, cc.policy, cc.pipeline)
		fmt.Printf("chaos: injected %d drop(s) (%d lost, %d resends), %d delay(s), %d dup(s), %d corruption(s), %d CRC reject(s)\n",
			injected.Dropped, injected.Lost, injected.Resent, injected.Delayed, injected.Duplicated,
			injected.Corrupted, injected.RejectedCRC)
	}

	failed := 0
	for r, err := range rankErrs {
		switch {
		case err == nil:
		case r == victim:
			fmt.Printf("chaos: rank %d (victim) died as planned: %v\n", r, err)
		case r == p:
			failed++
			fmt.Printf("chaos: spare for rank %d error: %v\n", p-1, err)
		default:
			failed++
			fmt.Printf("chaos: rank %d error: %v\n", r, err)
		}
	}
	degraded, recovered, rejoined := false, false, false
	epochs := 0
	evicted := map[int]bool{}
	for _, rep := range reports {
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
			epochs = max(epochs, rep.RecoveryEpochs)
			for _, r := range rep.RecoveredRanks {
				evicted[r] = true
			}
			fmt.Printf("chaos: rank %d recovered: %d epoch(s), rebuilt the layer(s) of rank(s) %v\n",
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
			slow, cc.brownout, sum(telemetry.CtrDeadlineGrace), sum(telemetry.CtrHealthEscalations), len(evicted))
		// A brownout is slow-not-dead: evicting the slow rank (absent a real
		// victim) means the gray-failure machinery false-positived.
		if victim < 0 && evicted[slow] {
			return fmt.Errorf("chaos: browned-out rank %d was FALSELY EVICTED (slow, not dead)", slow)
		}
	}
	if cc.spare {
		// One greppable line for the CI self-healing job: the join counter,
		// and how many ranks ended the frame evicted. A healed run counts a
		// rejoin on every survivor and on the spare, and evicts nobody.
		fmt.Printf("# rejoin: spare=%v rejoins=%d evictions=%d\n",
			cc.spare, sum(telemetry.CtrRejoins), len(evicted))
	}
	// The real run's telemetry: per-step timing/bytes table aggregated
	// across ranks, optional span Gantt and Chrome trace export.
	fmt.Println()
	fmt.Print(telemetry.StepTable(rec.Summaries(p)))
	if tcp {
		// The session layer's own tallies, summed across ranks: the proof
		// that the outages were absorbed below the composition protocol.
		fmt.Printf("# session: reconnects=%d replayed_frames=%d dup_frames_dropped=%d acks_sent=%d heartbeats=%d\n",
			sum(telemetry.CtrReconnects), sum(telemetry.CtrReplayedFrames),
			sum(telemetry.CtrDupFramesDropped), sum(telemetry.CtrAcksSent), sum(telemetry.CtrHeartbeats))
	}
	if cc.gantt {
		fmt.Println()
		fmt.Print(trace.SpanGantt(rec.Spans(), p, 96))
	}
	if cc.traceOut != "" && !cc.tracePerRank {
		spans, flows, err := trace.WriteFile(cc.traceOut, rec, -1)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans, %d flow events) — open in chrome://tracing or ui.perfetto.dev\n", cc.traceOut, spans, flows)
	}
	if cc.traceOut != "" && cc.tracePerRank {
		// One file per rank holding only that rank's events: the input
		// shape of an rttrace merge.
		for r := 0; r < p; r++ {
			path := trace.RankedPath(cc.traceOut, r)
			spans, flows, err := trace.WriteFile(path, rec, r)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d spans, %d flow events)\n", path, spans, flows)
		}
		fmt.Printf("merge with: rttrace -o merged.json %s\n", trace.RankedPath(cc.traceOut, 0))
	}
	// The black box of anything that went wrong: a failed rank or a
	// recovery carries its recent event history onto stdout, the same dump
	// a FailFast stall embeds in its error.
	if (failed > 0 || recovered) && rec.FlightDump() != "" {
		fmt.Println()
		fmt.Println(rec.FlightDump())
	}

	// A run with a victim must recover, and a cut connection must never
	// reach the composition protocol: either failing is an error, not a
	// report.
	mustHeal := victim >= 0 || tcp
	switch {
	case failed > 0:
		fmt.Printf("chaos: FAILED CLEANLY in %v — %d rank(s) returned typed errors, no hang\n", elapsed, failed)
		if mustHeal {
			return fmt.Errorf("chaos: %d rank(s) errored in a run that must heal", failed)
		}
	case final == nil:
		fmt.Printf("chaos: no final image in %v\n", elapsed)
		if mustHeal {
			return fmt.Errorf("chaos: no final image in a run that must heal")
		}
	case tcp && (degraded || recovered):
		return fmt.Errorf("chaos: transient connection loss was visible to the composition protocol")
	case rejoined && raster.MaxDiff(final, want) <= tol:
		fmt.Printf("chaos: REJOINED in %v — mesh healed at full capacity, image matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, raster.MaxDiff(final, want), tol)
	case recovered && raster.MaxDiff(final, want) <= tol:
		fmt.Printf("chaos: RECOVERED in %v — %d re-executed epoch(s), image matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, epochs, raster.MaxDiff(final, want), tol)
	case degraded:
		fmt.Printf("chaos: DEGRADED image composed in %v (maxdiff vs reference: %d)\n",
			elapsed, raster.MaxDiff(final, want))
		if victim >= 0 {
			return fmt.Errorf("chaos: a run with a victim ended degraded instead of recovering")
		}
	case raster.MaxDiff(final, want) <= tol:
		if victim >= 0 {
			// A victim was configured but nobody recovered: the kill never
			// fired (die-after beyond the send count) or went unnoticed —
			// either way the CI invariant did not get exercised.
			return fmt.Errorf("chaos: image is complete but no rank flagged Recovered with a victim configured")
		}
		how := ""
		if tcp {
			how = fmt.Sprintf("%d severed connection(s) resumed invisibly, ", severed.Load())
		}
		fmt.Printf("chaos: SURVIVED in %v — %simage matches the fault-free composite (maxdiff %d, tolerance %d)\n",
			elapsed, how, raster.MaxDiff(final, want), tol)
	default:
		return fmt.Errorf("chaos: composed image DIFFERS from the fault-free composite (maxdiff %d > %d) without being flagged degraded",
			raster.MaxDiff(final, want), tol)
	}
	return nil
}
