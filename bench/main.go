// Command bench is the repository's frame ledger: one command runs the six
// named workloads, checks every frame against an oracle and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run . -seed 1                      all workloads, end-to-end metrics
//	go run . -seed 1 -trace 1             per-layer metrics and span files
//	go run . -workload frame-head -seconds 10
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names a metric; BENCHMARK.json repeats these tables and the
// smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: relative worsening that is a regression
}

// The timing bounds are wider than the issue's first draft: ten runs of one
// commit on the two shared cores this was written on differ by 2-10 % between
// their quartiles in every timing metric (README.md, "Spread"), and a bound
// has to be about three times that to tell a regression from the machine.
var endToEnd = []metricDef{
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"frame_ms_p95", "ms", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"allocs_per_frame", "count", "lower", 0.05},
	{"alloc_kb_per_frame", "KB", "lower", 0.05},
	{"wire_bytes_per_frame", "bytes", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// failRatio is reported and compared like the metrics above, but it is not
// in BENCHMARK.json: it is 0 on a healthy run, and the driver's contract
// carries failures in the attempted/failed counts instead.
var failRatio = metricDef{"fail_ratio", "ratio", "lower", 0}

// reported is what a run prints and -compare reads: the table above and fail_ratio.
var reported = append(endToEnd[:len(endToEnd):len(endToEnd)], failRatio)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's row of the ledger.
type result struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"`
	// The timing metrics come from the quiet laps: how many of how many, and
	// the frames in them. AllP50 is the median over every lap, for reference.
	Laps         int     `json:"laps,omitempty"`
	QuietLaps    int     `json:"quiet_laps,omitempty"`
	QuietSamples int     `json:"quiet_samples,omitempty"`
	AllP50       float64 `json:"frame_ms_p50_all_laps,omitempty"`

	EndToEnd map[string]value     `json:"end_to_end,omitempty"`
	Rounds   map[string][]float64 `json:"rounds,omitempty"` // the same metrics per round
	PerLayer map[string]value     `json:"per_layer,omitempty"`
	Shares   map[string]float64   `json:"layer_self_time_share,omitempty"`
}

// ledger is the JSON result of a run.
type ledger struct {
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Workloads []*result   `json:"workloads"`
}

// environment records where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 27, "timed seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and span files instead of end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny inputs, two frames per window: checks the plumbing, measures nothing")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
		out     = flag.String("out", "", "result file (default bench/out/result[-trace].json under the repository root)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*name) != nil {
		names = []string{*name}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	sh := ledgerShape
	if *smoke {
		sh = smokeShape
	}
	led, err := run(names, *seed, *seconds, *trace != 0, sh)
	if err != nil {
		fatal(err)
	}
	printLedger(os.Stdout, led)
	if err := writeLedger(led, *out); err != nil {
		fatal(err)
	}
	// The last line of standard output is the driver's contract.
	fmt.Println(contractLine(led))
	for _, r := range led.Workloads {
		if r.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// lap is a fixed number of frames per client: every lap of a workload is
// the same work (the same partial images, or one whole turn of the orbit),
// so the laps of a run differ only by what else the machine was doing.
type lap struct {
	frameMs []float64
	failed  int
	wall    time.Duration
	cpu     time.Duration
}

// window is one timed window of one workload: laps back to back.
type window struct {
	laps      []lap
	failed    int
	delta     totals // over the whole window
	firstFail error
}

func (w *window) samples() (n int) {
	for _, l := range w.laps {
		n += len(l.frameMs)
	}
	return n
}

func (w *window) frames() int { return w.samples() + w.failed }

// perFrame divides a window total by the frames it covers.
func (w *window) perFrame(x float64) float64 { return x / float64(max(w.frames(), 1)) }

// frameMs is every timed frame of the window.
func (w *window) frameMs() []float64 {
	var all []float64
	for _, l := range w.laps {
		all = append(all, l.frameMs...)
	}
	return all
}

// runLap runs frames frames of every closed-loop client. tr is nil in the
// untraced pass.
func runLap(in *instance, frames int, tr *tracer, rec traceRecorder) (lap, error, error) {
	var l lap
	var firstFail error
	client := func(c int) (times []float64, failed int, fail error) {
		for n := 0; n < frames; n++ {
			i := in.next[c]
			in.next[c]++
			var tc *traceCtx
			endFrame := nop
			if tr != nil {
				frame := i*in.clients + c
				id, end := tr.begin("frame", "harness", 0, frame, c)
				tc, endFrame = &traceCtx{tr: tr, rec: rec, span: id, frame: frame}, end
			}
			f0 := time.Now()
			err := in.frame(c, i, tc)
			d := time.Since(f0)
			endFrame()
			if err != nil {
				failed++
				if fail == nil {
					fail = err
				}
				continue
			}
			times = append(times, ms(d))
		}
		return times, failed, fail
	}
	cpu0, err := in.cpu()
	if err != nil {
		return l, nil, err
	}
	t0 := time.Now()
	if in.clients == 1 {
		l.frameMs, l.failed, firstFail = client(0)
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < in.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				times, failed, fail := client(c)
				mu.Lock()
				l.frameMs = append(l.frameMs, times...)
				l.failed += failed
				if firstFail == nil {
					firstFail = fail
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}
	l.wall = time.Since(t0)
	cpu1, err := in.cpu()
	l.cpu = cpu1 - cpu0
	return l, firstFail, err
}

// measure runs laps of the workload's closed loop until dur has passed, at
// least one, and returns what they cost.
func measure(in *instance, dur time.Duration, lapFrames int, tr *tracer, rec traceRecorder) (*window, error) {
	runtime.GC()
	before, err := in.stats()
	if err != nil {
		return nil, err
	}
	if in.next == nil {
		in.next = make([]int, in.clients)
	}
	w := &window{}
	for deadline := time.Now().Add(dur); ; {
		l, fail, err := runLap(in, lapFrames, tr, rec)
		if err != nil {
			return nil, err
		}
		w.laps = append(w.laps, l)
		w.failed += l.failed
		if w.firstFail == nil {
			w.firstFail = fail
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	after, err := in.stats()
	if err != nil {
		return nil, err
	}
	w.delta = totals{
		procStats: procStats{
			cpu:        after.cpu - before.cpu,
			mallocs:    after.mallocs - before.mallocs,
			allocBytes: after.allocBytes - before.allocBytes,
		},
		wire: after.wire - before.wire,
	}
	return w, nil
}

// setUp sets the workload up once — input generation, schedule build and
// validation, volume build, mesh bring-up or server build and start, oracle
// frames, warm-up — and returns the instance and the seconds it took.
func setUp(w *workload, seed int64, sh shape) (*instance, float64, error) {
	t0 := time.Now()
	in, err := w.setup(w.name, seed, sh)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm := w.warmup
	if sh.frames > 0 {
		warm = sh.frames // the smoke shape: plumbing only
	}
	wu, err := measure(in, 0, warm, nil, nil) // one lap of warm frames
	if err != nil || wu.failed > 0 {
		in.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %d frames failed: %v", w.name, wu.failed, errors.Join(err, wu.firstFail))
	}
	return in, time.Since(t0).Seconds(), nil
}

// run measures the named workloads: sh.setups set-ups each (setup_s is their
// median, so one cold build does not set it; the last instance is kept),
// then sh.rounds timed windows each. Set-ups and windows are interleaved
// across workloads, so that drift on a shared machine reaches all alike.
func run(names []string, seed int64, seconds float64, trace bool, sh shape) (*ledger, error) {
	led := &ledger{Env: currentEnv(), Seed: seed, Seconds: seconds, Trace: trace}
	if trace {
		var fixed map[string]float64 // the workload-independent probes, taken once
		for _, name := range names {
			r, err := tracedPass(findWorkload(name), seed, seconds, sh, &fixed)
			if err != nil {
				return nil, err
			}
			led.Workloads = append(led.Workloads, r)
		}
		return led, nil
	}
	type live struct {
		in      *instance
		setups  []float64
		windows []*window
	}
	lives := make([]*live, len(names))
	for i := range lives {
		lives[i] = &live{}
	}
	defer func() {
		for _, l := range lives {
			if l.in != nil {
				l.in.close()
			}
		}
	}()
	for k := 0; k < sh.setups; k++ {
		for i, l := range lives {
			if l.in != nil {
				l.in.close()
				l.in = nil
			}
			in, secs, err := setUp(findWorkload(names[i]), seed, sh)
			if err != nil {
				return nil, err
			}
			l.in, l.setups = in, append(l.setups, secs)
		}
	}
	dur := sh.window(seconds, sh.rounds)
	for round := 0; round < sh.rounds; round++ {
		for i, l := range lives {
			w, err := measure(l.in, dur, findWorkload(names[i]).lapFrames(sh), nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
			if w.firstFail != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: frame failed: %v\n", names[i], w.firstFail)
			}
			l.windows = append(l.windows, w)
		}
	}
	for i, l := range lives {
		w := findWorkload(names[i])
		r := &result{Name: w.name, Why: w.why}
		summarize(r, l.windows, l.setups)
		led.Workloads = append(led.Workloads, r)
	}
	return led, nil
}

// quietShare is the share of a run's laps the timing metrics are taken from:
// the fastest fifth. Every lap is the same work, and the neighbours on a
// shared host only ever add time to it (README.md, "Spread"): a median over
// all laps follows the machine's bad minutes, the fastest fifth stays put
// unless fewer than a fifth of the laps were left alone.
const quietShare = 0.2

// timing is the four timing metrics of a set of laps.
type timing struct {
	p50, p95, perSec, cpuMs float64
	laps, samples           int // what they were taken from
}

// quietTiming takes the timing metrics from the quietShare fastest laps,
// pooled: the percentiles over their frames, throughput and CPU per frame
// from their summed wall and CPU time.
func quietTiming(laps []lap) timing {
	byWall := append([]lap(nil), laps...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall < byWall[j].wall })
	quiet := byWall[:max(1, int(float64(len(byWall))*quietShare+0.5))]
	var frames []float64
	var wall, cpu time.Duration
	n := 0
	for _, l := range quiet {
		frames = append(frames, l.frameMs...)
		wall += l.wall
		cpu += l.cpu
		n += len(l.frameMs) + l.failed
	}
	return timing{
		p50: median(frames), p95: quantile(frames, 0.95),
		perSec: float64(len(frames)) / wall.Seconds(), cpuMs: ms(cpu) / float64(max(n, 1)),
		laps: len(quiet), samples: len(frames),
	}
}

// summarize reduces the windows to the end-to-end metrics. Times come from
// the quiet laps of the whole run, counts from every frame; Rounds keeps
// the same numbers for each half of the run, so -compare can tell a run
// that did not agree with itself.
func summarize(r *result, windows []*window, setups []float64) {
	rounds := map[string][]float64{}
	var all window // the windows as one
	for _, w := range windows {
		all.laps = append(all.laps, w.laps...)
		all.failed += w.failed
		all.delta.mallocs += w.delta.mallocs
		all.delta.allocBytes += w.delta.allocBytes
		all.delta.wire += w.delta.wire
		t := quietTiming(w.laps)
		rounds["frame_ms_p50"] = append(rounds["frame_ms_p50"], t.p50)
		rounds["frame_ms_p95"] = append(rounds["frame_ms_p95"], t.p95)
		rounds["frames_per_s"] = append(rounds["frames_per_s"], t.perSec)
		rounds["cpu_ms_per_frame"] = append(rounds["cpu_ms_per_frame"], t.cpuMs)
		rounds["allocs_per_frame"] = append(rounds["allocs_per_frame"], w.perFrame(float64(w.delta.mallocs)))
		rounds["alloc_kb_per_frame"] = append(rounds["alloc_kb_per_frame"], w.perFrame(float64(w.delta.allocBytes)/1024))
		rounds["wire_bytes_per_frame"] = append(rounds["wire_bytes_per_frame"], w.perFrame(float64(w.delta.wire)))
	}
	r.Attempted, r.Failed, r.Samples = all.frames(), all.failed, all.samples()
	t := quietTiming(all.laps)
	r.QuietLaps, r.QuietSamples, r.Laps = t.laps, t.samples, len(all.laps)
	r.AllP50 = median(all.frameMs())
	r.EndToEnd = map[string]value{
		"frame_ms_p50":         {t.p50, "ms"},
		"frame_ms_p95":         {t.p95, "ms"},
		"frames_per_s":         {t.perSec, "1/s"},
		"cpu_ms_per_frame":     {t.cpuMs, "ms"},
		"allocs_per_frame":     {all.perFrame(float64(all.delta.mallocs)), "count"},
		"alloc_kb_per_frame":   {all.perFrame(float64(all.delta.allocBytes) / 1024), "KB"},
		"wire_bytes_per_frame": {all.perFrame(float64(all.delta.wire)), "bytes"},
		// The first set-up of a process pays for cold caches and a possible
		// build; the median of five does not see it.
		"setup_s": {median(setups), "s"},
	}
	rounds["setup_s"] = setups
	r.Rounds = rounds
	r.EndToEnd[failRatio.name] = value{float64(r.Failed) / float64(max(r.Attempted, 1)), failRatio.unit}
}

// repoOut returns the directory results and span files go to.
func repoOut() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func writeLedger(led *ledger, path string) error {
	if path == "" {
		dir, err := repoOut()
		if err != nil {
			return err
		}
		path = filepath.Join(dir, "result.json")
		if led.Trace {
			path = filepath.Join(dir, "result-trace.json")
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one JSON object the driver reads: with a single
// workload its metrics by name, with several "<workload>/<metric>".
func contractLine(led *ledger) string {
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	l := line{Metrics: map[string]value{}}
	for _, r := range led.Workloads {
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		prefix := ""
		if len(led.Workloads) > 1 {
			prefix = r.Name + "/"
		}
		defs, vals := endToEnd, r.EndToEnd
		if led.Trace {
			defs, vals = perLayer, r.PerLayer
		}
		for _, m := range defs {
			l.Metrics[prefix+m.name] = vals[m.name]
		}
	}
	l.Correct = l.Failed == 0
	data, _ := json.Marshal(l) // plain maps and numbers: cannot fail
	return string(data)
}

func printLedger(w io.Writer, led *ledger) {
	e := led.Env
	fmt.Fprintf(w, "# env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%v\n",
		e.NProc, e.GOMAXPROCS, e.Go, e.Commit, led.Seed, led.Seconds, led.Trace)
	for _, r := range led.Workloads {
		fmt.Fprintf(w, "\n%s  (%d frames attempted, %d failed, %d samples)\n", r.Name, r.Attempted, r.Failed, r.Samples)
		if !led.Trace {
			fmt.Fprintf(w, "  times from the %d quietest of %d laps, %d samples; frame_ms_p50 over all laps %.4f ms\n", r.QuietLaps, r.Laps, r.QuietSamples, r.AllP50)
		}
		defs, vals := reported, r.EndToEnd
		if led.Trace {
			defs, vals = perLayer, r.PerLayer
		}
		for _, m := range defs {
			v := vals[m.name]
			note := ""
			if m.name == "frame_ms_p95" && r.QuietSamples < 200 {
				note = "  (fewer than 200 samples: fewer than ten lie beyond)"
			}
			if rs := r.Rounds[m.name]; len(rs) > 1 {
				note += fmt.Sprintf("  (round spread %.1f%%)", 100*spread(rs))
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", m.name, v.Value, v.Unit, note)
		}
		if len(r.Shares) > 0 {
			fmt.Fprintln(w, "  self-time share by layer (busy, then :wait = blocked on other ranks):")
			keys := make([]string, 0, len(r.Shares))
			for k := range r.Shares {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return r.Shares[keys[i]] > r.Shares[keys[j]] })
			for _, k := range keys {
				fmt.Fprintf(w, "    %-24s %5.1f%%\n", k, 100*r.Shares[k])
			}
		}
	}
}
