// rtnode runs one rank of the distributed rendering pipeline over raw TCP
// sockets — the multi-process deployment of the library. Start P processes
// with the same -addrs list and ranks 0..P-1; rank 0 writes the final
// image.
//
//	rtnode -rank 0 -addrs host0:7000,host1:7000 -dataset head -o head.png &
//	rtnode -rank 1 -addrs host0:7000,host1:7000 -dataset head &
//
// For a single-machine demonstration, -local P runs all ranks in one
// process but still moves every byte through loopback TCP sockets:
//
//	rtnode -local 4 -dataset engine -method 2nrt:4 -o engine.png
//
// Observability: -trace-out writes the run's per-rank telemetry spans and
// causal message flows as Chrome trace-event JSON (open in chrome://tracing
// or Perfetto; merge the per-process -rNN files with rttrace), rank 0
// prints the cross-rank per-step timing/bytes table with latency quantiles,
// and -debug-addr serves live /metrics (Prometheus text), /debug/vars,
// /debug/flight and (unless -pprof=false) /debug/pprof while the node runs.
// SIGQUIT dumps the flight recorder's recent events to stderr without
// killing the process; a panic dumps it on the way down.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/core"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/trace"
	"rtcomp/internal/transport/tcpnet"
)

func main() {
	var (
		rank      = flag.Int("rank", -1, "this process's rank (multi-process mode)")
		addrs     = flag.String("addrs", "", "comma-separated listen addresses, one per rank")
		local     = flag.Int("local", 0, "run P ranks in-process over loopback TCP")
		dataset   = flag.String("dataset", "engine", "phantom dataset")
		volN      = flag.Int("voln", 128, "phantom resolution")
		method    = flag.String("method", "nrt:4", "composition method")
		cdc       = flag.String("codec", "trle", "wire codec: "+strings.Join(codec.Names(), ", ")+" (a block the codec cannot shrink ships raw)")
		size      = flag.Int("size", 512, "final image edge in pixels")
		yaw       = flag.Float64("yaw", 0.35, "camera yaw in radians")
		pitch     = flag.Float64("pitch", 0.2, "camera pitch in radians")
		out       = flag.String("o", "out.png", "output file on rank 0 (.png or .pgm)")
		accel     = flag.Bool("accel", false, "enable the opacity-coherence render acceleration")
		rle       = flag.Bool("rle", false, "render from a run-length encoded classified volume (fastest)")
		part      = flag.String("partition", "1d", "render-stage partitioning: 1d (depth slabs) or 2d (image tiles)")
		timeout   = flag.Duration("timeout", 30*time.Second, "mesh setup timeout")
		recvTO    = flag.Duration("recv-timeout", 0, "composition receive deadline (0 = wait forever)")
		missing   = flag.String("on-missing", "fail", "policy for missing contributions: fail, partial or recover")
		maxRec    = flag.Int("max-recoveries", 2, "re-execution budget of -on-missing recover (negative = fallback immediately)")
		spare     = flag.Bool("spare", false, "run as a standby for a dead -rank slot: rejoin via merkle-verified state transfer instead of rendering (requires -on-missing recover and -rejoin-timeout)")
		rejoinTO  = flag.Duration("rejoin-timeout", 0, "with -on-missing recover: bounded window the survivors wait for a -spare before degrading (0 disables rejoin; must match across ranks)")
		scrubRep  = flag.Bool("scrub-replicas", false, "re-hash buddy replicas after the exchange and repair silent corruption from the live copy (must match across ranks)")
		quiet     = flag.Bool("quiet-mesh", false, "suppress per-peer mesh setup progress")
		sessWin   = flag.Int("session-window", 0, "per-peer unacked frame window (0 = default)")
		reconnTO  = flag.Duration("reconnect-timeout", 0, "per-outage session resume budget (0 = default)")
		maxReconn = flag.Int("max-reconnects", 0, "redial attempts per outage (0 = default, negative disables reconnection)")
		heartbeat = flag.Duration("heartbeat", 0, "session heartbeat interval (0 = default, negative disables)")
		traceOut  = flag.String("trace-out", "", "write this run's telemetry as Chrome trace JSON (multi-process: a -rNN rank suffix is added; merge with rttrace)")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /debug/vars, /debug/flight and /debug/pprof on this address")
		withPprof = flag.Bool("pprof", true, "expose /debug/pprof on -debug-addr (operator-facing node listener: on by default)")
		pipeline  = flag.Bool("pipeline", false, "per-tile pipelined composition: overlap render, exchange and gather")
		pipeWin   = flag.Int("pipeline-window", 0, "tiles in flight per rank with -pipeline (0 = default, negative = unbounded)")
		progress  = flag.Bool("progressive", false, "with -pipeline, log each intermediate tile as the gather root completes it")
		grace     = flag.Bool("grace", false, "peer-health scoring: under -on-missing recover a slow but delivering peer is waited out instead of evicted; session replays count toward its score")
	)
	flag.Parse()

	m, err := core.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	if _, err := compositor.ParsePolicy(*missing); err != nil {
		fatal(err)
	}
	sess := comm.SessionConfig{
		WindowFrames:      *sessWin,
		ReconnectTimeout:  *reconnTO,
		MaxReconnects:     *maxReconn,
		HeartbeatInterval: *heartbeat,
	}
	rec := telemetry.New()
	defer rec.DumpFlightOnPanic(os.Stderr)
	dumpFlightOnQuit(rec)
	if *debugAddr != "" {
		srv := telemetry.NewServer(*debugAddr, telemetry.Mux(rec, *withPprof))
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "rtnode: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rtnode: serving /metrics, /debug/vars, /debug/flight on http://%s (pprof: %v)\n", *debugAddr, *withPprof)
	}
	mkConfig := func(p int) core.Config {
		cfg := core.Config{
			Dataset:        *dataset,
			VolumeN:        *volN,
			Camera:         shearwarp.Camera{Yaw: *yaw, Pitch: *pitch},
			Width:          *size,
			Height:         *size,
			P:              p,
			Method:         m,
			Codec:          *cdc,
			Accelerate:     *accel,
			RLE:            *rle,
			Partition:      *part,
			RecvTimeout:    *recvTO,
			OnMissing:      *missing,
			MaxRecoveries:  *maxRec,
			RejoinTimeout:  *rejoinTO,
			ScrubReplicas:  *scrubRep,
			Telemetry:      rec,
			Pipeline:       *pipeline,
			PipelineWindow: *pipeWin,
			Grace:          *grace,
		}
		if *pipeline && *progress {
			// The callback fires on the gather root only, as each tile of
			// the intermediate image becomes final.
			cfg.OnPartialFrame = func(f compositor.PartialFrame) {
				fmt.Fprintf(os.Stderr, "rtnode: tile %d ready (%d/%d, pixels %d..%d)\n",
					f.Tile, f.Done, f.Total, f.Span.Lo, f.Span.Hi)
			}
		}
		return cfg
	}

	if *spare && (*missing != "recover" || *rejoinTO <= 0) {
		fatal(fmt.Errorf("-spare requires -on-missing recover and a positive -rejoin-timeout"))
	}
	if *spare && *local > 0 {
		fatal(fmt.Errorf("-spare stands by for a dead rank of an -addrs mesh; -local builds a whole mesh and has no slot to fill"))
	}
	if *local > 0 {
		flushOnSignal(rec, *traceOut, func() []telemetry.Summary { return rec.Summaries(*local) })
		if err := runLocal(*local, mkConfig(*local), rec, *out, *traceOut, *timeout, sess); err != nil {
			fatal(err)
		}
		return
	}

	list := strings.Split(*addrs, ",")
	if *addrs == "" || *rank < 0 || *rank >= len(list) {
		fatal(fmt.Errorf("need -rank in [0,%d) and -addrs with one address per rank (or -local P)", len(list)))
	}
	tracePath := ""
	if *traceOut != "" {
		tracePath = trace.RankedPath(*traceOut, *rank)
	}
	flushOnSignal(rec, tracePath, func() []telemetry.Summary { return []telemetry.Summary{rec.Summary(*rank)} })
	// One rank per process here, so the session layer and the compositor can
	// share one health tracker: frames replayed to a peer after an outage
	// count toward the same gray-failure score its deadline misses do.
	var nodeHealth *gray.Health
	if *grace {
		nodeHealth = gray.NewHealth(gray.HealthConfig{}, rec, *rank)
		sess.OnReplay = func(peer, frames int) { nodeHealth.Retransmit(peer, frames) }
	}
	ep, err := tcpnet.Start(tcpnet.Config{
		Rank:        *rank,
		Addrs:       list,
		DialTimeout: *timeout,
		Logf:        meshLogf(*quiet),
		Telemetry:   rec,
		Session:     sess,
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()
	cfg := mkConfig(len(list))
	cfg.Health = nodeHealth
	render := core.RenderRank
	if *spare {
		// Standby mode: skip rendering, announce for the dead slot, restore
		// state from the mesh's merkle-verified transfer and finish the frame
		// as a full member.
		render = core.SpareRank
	}
	img, rep, err := render(ep, cfg)
	if err != nil {
		fatal(err)
	}
	warnDegraded(rep)
	noteRecovered(rep)
	noteRejoined(rep)
	fmt.Printf("rank %d: %d msgs sent, %d bytes sent, %d over-pixels\n",
		*rank, rep.Comm.MsgsSent, rep.Comm.BytesSent, rep.OverPixels)
	fmt.Printf("rank %d comm: %s\n", *rank, rep.Comm)
	// Cross-rank telemetry: every rank ships its summary to rank 0, which
	// prints the cluster totals and the per-step timing/bytes table. The
	// teardown collective runs under the composition's receive deadline:
	// after a recovered frame some peers are dead, and a missing summary
	// must cost a warning (and a partial table), not a wedged process.
	var seq comm.Sequencer
	summaries, err := telemetry.GatherSummaries(ep, &seq, 0, rec.Summary(*rank), *recvTO)
	if err != nil {
		if !comm.IsRecoverable(err) {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rtnode: WARNING: telemetry table incomplete: %v\n", err)
	}
	if summaries != nil {
		tot := map[string]int64{}
		for _, s := range summaries {
			for _, c := range s.Counters {
				tot[c.Name] += c.Value
			}
		}
		fmt.Printf("cluster totals: %d msgs, %d bytes, %d over-pixels\n",
			tot[telemetry.CtrCommMsgsSent], tot[telemetry.CtrCommBytesSent], tot[telemetry.CtrOverPixels])
		fmt.Println()
		fmt.Print(telemetry.StepTable(summaries))
	}
	if *traceOut != "" {
		path := trace.RankedPath(*traceOut, *rank)
		if _, _, err := trace.WriteFile(path, rec, -1); err != nil {
			fatal(err)
		}
		fmt.Printf("rank %d wrote %s — open in chrome://tracing or ui.perfetto.dev\n", *rank, path)
	}
	if img != nil {
		if err := img.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("rank 0 wrote %s\n", *out)
	}
}

// meshLogf returns the per-peer mesh setup progress logger — the antidote
// to a rank silently blocking on a peer that never comes up.
func meshLogf(quiet bool) func(format string, args ...any) {
	if quiet {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// warnDegraded surfaces a compose-partial result that is missing
// contributions, so a flagged image is never mistaken for a complete one.
func warnDegraded(rep *compositor.Report) {
	if rep == nil || !rep.Degraded {
		return
	}
	fmt.Fprintf(os.Stderr,
		"rtnode: WARNING: rank %d composed a DEGRADED image: %d missing transfer(s), %d blank layer-pixel(s), %d missing gather(s); comm: %s\n",
		rep.Rank, rep.MissingTransfers, rep.MissingLayerPix, rep.MissingGathers, rep.Comm)
}

// noteRecovered surfaces a recover-policy frame that lost ranks but still
// certified a complete image from the replicated sub-images.
func noteRecovered(rep *compositor.Report) {
	if rep == nil || !rep.Recovered {
		return
	}
	fmt.Fprintf(os.Stderr,
		"rtnode: rank %d RECOVERED a complete image: %d re-executed epoch(s), dead rank(s) %v contributed from replicas\n",
		rep.Rank, rep.RecoveryEpochs, rep.RecoveredRanks)
}

// noteRejoined surfaces a self-healed frame: a spare took over a dead slot
// via verified state transfer and the mesh committed at full capacity.
func noteRejoined(rep *compositor.Report) {
	if rep == nil || !rep.Rejoined {
		return
	}
	fmt.Fprintf(os.Stderr,
		"rtnode: rank %d REJOINED mesh healed: slot(s) %v re-admitted over %d join round(s), frame committed at full capacity\n",
		rep.Rank, rep.RejoinedRanks, rep.RejoinEpochs)
}

// dumpFlightOnQuit makes SIGQUIT dump the flight recorder's recent events
// to stderr and keep running — the live "what just happened" probe for a
// node that looks wedged, without sacrificing the process the way the Go
// runtime's default SIGQUIT goroutine dump does.
func dumpFlightOnQuit(rec *telemetry.Recorder) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			fmt.Fprintln(os.Stderr, "rtnode: SIGQUIT")
			if err := rec.WriteFlight(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "rtnode: flight dump: %v\n", err)
			}
		}
	}()
}

// flushOnSignal makes SIGINT/SIGTERM flush the observability before dying:
// the trace file (when -trace-out is set) and the partial telemetry table
// land on disk/stderr even when the run is interrupted mid-frame — exactly
// the moment the spans are most needed.
func flushOnSignal(rec *telemetry.Recorder, tracePath string, summarize func() []telemetry.Summary) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "rtnode: caught %v, flushing partial telemetry\n", sig)
		if tracePath != "" {
			if _, _, err := trace.WriteFile(tracePath, rec, -1); err != nil {
				fmt.Fprintf(os.Stderr, "rtnode: trace flush: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "rtnode: wrote %s (partial)\n", tracePath)
			}
		}
		fmt.Fprint(os.Stderr, telemetry.StepTable(summarize()))
		os.Exit(130)
	}()
}

func runLocal(p int, cfg core.Config, rec *telemetry.Recorder, out, traceOut string, timeout time.Duration, sess comm.SessionConfig) error {
	var final *raster.Image
	var mu sync.Mutex
	err := tcpnet.Run(p, tcpnet.Config{DialTimeout: timeout, Telemetry: rec, Session: sess}, func(ep *tcpnet.Endpoint) error {
		defer rec.DumpFlightOnPanic(os.Stderr)
		img, rep, err := core.RenderRank(ep, cfg)
		if err != nil {
			return fmt.Errorf("rank %d: %w", ep.Rank(), err)
		}
		warnDegraded(rep)
		fmt.Printf("rank %d: %d msgs, %d bytes over TCP (comm: %s)\n",
			ep.Rank(), rep.Comm.MsgsSent, rep.Comm.BytesSent, rep.Comm)
		if img != nil {
			mu.Lock()
			final = img
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("no final image produced")
	}
	// All ranks share one recorder in -local mode, so the per-step table
	// aggregates in-process without a collective.
	fmt.Println()
	fmt.Print(telemetry.StepTable(rec.Summaries(p)))
	if traceOut != "" {
		if _, _, err := trace.WriteFile(traceOut, rec, -1); err != nil {
			return err
		}
		fmt.Printf("wrote %s — open in chrome://tracing or ui.perfetto.dev\n", traceOut)
	}
	if err := final.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%dx%d)\n", out, final.W, final.H)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtnode:", err)
	os.Exit(1)
}
