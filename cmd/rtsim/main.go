// rtsim runs a single composition under the virtual-time SP2 simulator and
// reports its timing, traffic, per-rank Gantt chart and (optionally) a
// Chrome trace-event file for chrome://tracing or Perfetto.
//
//	rtsim -dataset engine -p 16 -method 2nrt:4 -codec trle
//	rtsim -p 8 -method bs -gantt -trace bs.json
//
// With -chaos the composition instead runs for real on the in-process
// fabric wrapped in the fault-injection middleware, reporting whether the
// schedule survived the configured fault mix:
//
//	rtsim -p 8 -method nrt:4 -chaos -drop 0.3 -resend 8 -recv-timeout 2s
//	rtsim -p 5 -method pp -chaos -die-after 3 -recv-timeout 1s -on-missing partial
//
// With -chaos -conn-reset N the run instead uses a real loopback TCP mesh
// and severs N live connections at seeded-random step boundaries; the
// session layer must resume each one without the composition noticing:
//
//	rtsim -p 4 -method nrt:4 -chaos -conn-reset 3 -codec trle
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/compositor"
	"rtcomp/internal/core"
	"rtcomp/internal/experiments"
	"rtcomp/internal/model"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/simnet"
	"rtcomp/internal/stats"
	"rtcomp/internal/trace"
	"rtcomp/internal/transport/faulty"
)

func main() {
	var (
		dataset   = flag.String("dataset", "engine", "phantom dataset")
		volN      = flag.Int("voln", 128, "phantom resolution")
		p         = flag.Int("p", 32, "processor count")
		method    = flag.String("method", "2nrt:4", "composition method")
		cdc       = flag.String("codec", "raw", "wire codec: "+strings.Join(codec.Names(), ", ")+" (a block the codec cannot shrink ships raw)")
		size      = flag.Int("size", 512, "composite image edge in pixels")
		machine   = flag.String("machine", "sp2", "machine model: sp2 or paper")
		gantt     = flag.Bool("gantt", false, "print the per-rank occupancy chart")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON file")
		traceOut  = flag.String("trace-out", "", "with -chaos: write the real run's telemetry as Chrome trace JSON (otherwise same as -trace)")
		tracePR   = flag.Bool("trace-per-rank", false, "with -chaos -trace-out: write one -rNN trace file per rank (merge with rttrace)")
		dotFile   = flag.String("dot", "", "write the schedule as a Graphviz digraph")

		chaos     = flag.Bool("chaos", false, "run for real on the fault-injected in-process fabric")
		chaosSeed = flag.Int64("seed", 1, "chaos: seed of the fault stream and of the compositor's receive interleaver")
		drop      = flag.Float64("drop", 0, "chaos: per-attempt message drop probability")
		resend    = flag.Int("resend", 0, "chaos: retransmission attempts per dropped message")
		delayProb = flag.Float64("delay-prob", 0, "chaos: delivery jitter probability")
		maxDelay  = flag.Duration("max-delay", 5*time.Millisecond, "chaos: jitter bound")
		dup       = flag.Float64("dup", 0, "chaos: duplicate delivery probability")
		corrupt   = flag.Float64("corrupt", 0, "chaos: payload corruption probability")
		dieAfter  = flag.Int("die-after", 0, "chaos: kill the last rank after this many sends (0 = never)")
		kill      = flag.Bool("kill", false, "chaos: kill the last rank right after its replica ships (shorthand for -die-after 1)")
		spareF    = flag.Bool("spare", false, "chaos: register a standby for the killed rank's slot; it must rejoin via merkle-verified state transfer and the run must end REJOINED (requires -on-missing recover)")
		rejoinTO  = flag.Duration("rejoin-timeout", 0, "chaos: bounded window the survivors wait for a -spare before degrading (default 10x -recv-timeout when -spare is set)")
		scrubF    = flag.Bool("scrub", false, "chaos: re-hash buddy replicas after the exchange and repair silent corruption from the live copy")
		connReset = flag.Int("conn-reset", 0, "chaos: sever this many live TCP connections at seeded-random steps over a loopback mesh (0 = use the in-process fabric)")
		brownout  = flag.Duration("brownout", 0, "chaos: gray failure — every delivery from one seeded-random non-root rank is delayed by this much (slow, not dead)")
		recvTO    = flag.Duration("recv-timeout", 2*time.Second, "chaos: composition receive deadline")
		missing   = flag.String("on-missing", "fail", "chaos: missing-data policy (fail, partial or recover)")
		maxRec    = flag.Int("max-recoveries", 2, "chaos: re-execution budget of -on-missing recover")
		pipeline  = flag.Bool("pipeline", false, "chaos: run the per-tile pipelined compositor")
	)
	flag.Parse()
	if *chaos && *connReset > 0 && *p < 2 {
		fatal(fmt.Errorf("-conn-reset needs -p >= 2: a mesh of one rank has no connection to sever"))
	}

	var params simnet.Params
	switch *machine {
	case "sp2":
		params = simnet.SP2Calibrated()
	case "paper":
		params = simnet.PaperExample()
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}

	m, err := core.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	// An automatic block count is planned for the simulated machine: the
	// planner must price messages, bytes and pixels the way the simulator will.
	m, err = m.ResolveNWith(*p, *size**size, model.Params{Ts: params.Ts, Tp: params.TpPerByte, To: params.ToPerPixel})
	if err != nil {
		fatal(err)
	}
	sched, err := m.Schedule(*p)
	if err != nil {
		fatal(err)
	}
	c, err := codec.ByName(*cdc)
	if err != nil {
		fatal(err)
	}

	o := experiments.DefaultOptions()
	o.Dataset = *dataset
	o.VolumeN = *volN
	o.Width, o.Height = *size, *size
	o.Camera = shearwarp.Camera{Yaw: 0.35, Pitch: 0.2}
	layers, err := experiments.Partials(o, *p)
	if err != nil {
		fatal(err)
	}

	if *chaos {
		if *kill && *dieAfter == 0 {
			*dieAfter = 1
		}
		if *spareF {
			if *missing != "recover" {
				fatal(fmt.Errorf("-spare requires -on-missing recover"))
			}
			if *rejoinTO == 0 {
				*rejoinTO = 10 * *recvTO
			}
		}
		policy, err := compositor.ParsePolicy(*missing)
		if err != nil {
			fatal(err)
		}
		if *connReset > 0 {
			// A severed connection must stay below the protocol: fail fast.
			policy = compositor.FailFast
		}
		err = runChaos(chaosConfig{
			sched: sched, layers: layers, cdc: c,
			plan: faulty.Plan{
				Seed: *chaosSeed, Drop: *drop, MaxResend: *resend,
				DelayProb: *delayProb, MaxDelay: *maxDelay,
				DupProb: *dup, CorruptProb: *corrupt,
			},
			dieAfter: *dieAfter, brownout: *brownout, cuts: *connReset,
			recvTimeout: *recvTO, policy: policy, maxRecoveries: *maxRec,
			spare: *spareF, rejoinTimeout: *rejoinTO, scrub: *scrubF,
			traceOut: *traceOut, tracePerRank: *tracePR, gantt: *gantt, pipeline: *pipeline,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	if *traceFile == "" {
		*traceFile = *traceOut
	}

	res, err := simnet.Simulate(sched, layers, c, params)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("method=%s codec=%s machine=%s p=%d image=%dx%d\n", m, *cdc, params.Name, *p, *size, *size)
	fmt.Printf("composition time: %s\n", stats.Seconds(res.Time))
	fmt.Printf("traffic: %d msgs, %s raw -> %s wire, %d over-pixels\n",
		res.Msgs, stats.IBytes(res.RawBytes), stats.IBytes(res.WireBytes), res.OverPixels)
	fmt.Printf("avg rank utilisation: %.0f%%\n", 100*trace.Utilisation(res.Events, *p, res.Time))

	if *gantt {
		fmt.Println()
		fmt.Print(trace.Gantt(res.Events, *p, 96, res.Time))
	}
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(sched.ToDOT()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s — render with `dot -Tsvg`\n", *dotFile)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f, res.Events); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d events) — open in chrome://tracing\n", *traceFile, len(res.Events))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtsim:", err)
	os.Exit(1)
}
