package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rtcomp"
)

// perLayer names the metrics of the traced pass, one group per repo module.
// A metric of a layer the workload's frame does not go through (core.* on a
// compose-* workload, rtserve.* outside serve-closed) reads 0 there.
var perLayer = []metricDef{
	{name: "codec.encode_ns_per_px", unit: "ns", better: "lower"},
	{name: "codec.decode_ns_per_px", unit: "ns", better: "lower"},
	{name: "codec.decode_over_ns_per_px", unit: "ns", better: "lower"},
	{name: "codec.wire_over_raw_ratio", unit: "ratio", better: "lower"},
	{name: "codec.expanded_blocks", unit: "count", better: "lower"},
	{name: "compose.over_ns_per_px", unit: "ns", better: "lower"},
	{name: "compose.over_px_per_frame", unit: "count", better: "lower"},
	{name: "compose.over_gb_per_s", unit: "GB/s", better: "higher"},
	{name: "compose.max_err_levels", unit: "count", better: "lower"},
	{name: "fragstore.merge_ns_per_px", unit: "ns", better: "lower"},
	{name: "fragstore.merge_encoded_ns_per_px", unit: "ns", better: "lower"},
	{name: "bufpool.hit_ratio", unit: "ratio", better: "higher"},
	{name: "bufpool.pool_bytes", unit: "bytes", better: "higher"},
	{name: "bufpool.get_put_ns", unit: "ns", better: "lower"},
	{name: "compositor.encode_ms", unit: "ms", better: "lower"},
	{name: "compositor.send_ms", unit: "ms", better: "lower"},
	{name: "compositor.recv_ms", unit: "ms", better: "lower"},
	{name: "compositor.decode_ms", unit: "ms", better: "lower"},
	{name: "compositor.merge_ms", unit: "ms", better: "lower"},
	{name: "compositor.gather_ms", unit: "ms", better: "lower"},
	{name: "compositor.self_ms", unit: "ms", better: "lower"},
	{name: "compositor.pipe_over_sync.d0", unit: "ratio", better: "lower"},
	{name: "compositor.pipe_over_sync.d200us", unit: "ratio", better: "lower"},
	{name: "compositor.pipe_over_sync.d1ms", unit: "ratio", better: "lower"},
	{name: "compositor.recover_over_failfast_ratio", unit: "ratio", better: "lower"},
	{name: "compositor.tiles_inflight_max", unit: "count", better: "higher"},
	{name: "schedule.build_validate_us", unit: "us", better: "lower"},
	{name: "schedule.steps", unit: "count", better: "lower"},
	{name: "schedule.msgs_per_frame", unit: "count", better: "lower"},
	{name: "schedule.bytes_per_frame", unit: "bytes", better: "lower"},
	{name: "comm.msgs_per_frame", unit: "count", better: "lower"},
	{name: "comm.bytes_per_frame", unit: "bytes", better: "lower"},
	{name: "inproc.ts_us", unit: "us", better: "lower"},
	{name: "inproc.tp_ns_per_byte", unit: "ns", better: "lower"},
	{name: "tcpnet.ts_us", unit: "us", better: "lower"},
	{name: "tcpnet.tp_ns_per_byte", unit: "ns", better: "lower"},
	{name: "tcpnet.mesh_up_ms", unit: "ms", better: "lower"},
	{name: "faulty.zero_plan_over_bare_ratio", unit: "ratio", better: "lower"},
	{name: "faulty.brownout_added_ms", unit: "ms", better: "lower"},
	{name: "telemetry.on_over_off_ratio", unit: "ratio", better: "lower"},
	{name: "telemetry.spans_per_frame", unit: "count", better: "lower"},
	{name: "telemetry.span_ns", unit: "ns", better: "lower"},
	{name: "model.ts_us", unit: "us", better: "lower"},
	{name: "model.tp_ns_per_byte", unit: "ns", better: "lower"},
	{name: "model.to_ns_per_px", unit: "ns", better: "lower"},
	{name: "model.predicted_critical_ms", unit: "ms", better: "lower"},
	{name: "model.predicted_work_ms", unit: "ms", better: "lower"},
	{name: "model.work_residual_ratio", unit: "ratio", better: "lower"},
	{name: "model.critical_residual_ratio", unit: "ratio", better: "lower"},
	{name: "simnet.simulate_ms", unit: "ms", better: "lower"},
	{name: "volume.build_head_ms", unit: "ms", better: "lower"},
	{name: "volume.build_engine_ms", unit: "ms", better: "lower"},
	{name: "shearwarp.factor_us", unit: "us", better: "lower"},
	{name: "shearwarp.slab_ms_max", unit: "ms", better: "lower"},
	{name: "shearwarp.warp_ms", unit: "ms", better: "lower"},
	{name: "core.render_ms", unit: "ms", better: "lower"},
	{name: "core.composite_ms", unit: "ms", better: "lower"},
	{name: "core.warp_ms", unit: "ms", better: "lower"},
	{name: "raster.png_encode_ms", unit: "ms", better: "lower"},
	{name: "admission.admit_release_us", unit: "us", better: "lower"},
	{name: "rtserve.overhead_ms", unit: "ms", better: "lower"},
	{name: "rtserve.shed_ratio", unit: "ratio", better: "lower"},
	{name: "rtserve.png_bytes", unit: "bytes", better: "lower"},
	{name: "harness.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "harness.round_spread", unit: "ratio", better: "lower"},
}

func ns(d time.Duration, n int64) float64 { return float64(d) / float64(max(n, 1)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedPass runs one workload for a short while with the harness spans and
// the program's public recorder switched on, alternating with untraced
// windows so the tracing overhead is a number, then runs the layer probes.
// End-to-end metrics are never taken from here.
func tracedPass(w *workload, seed int64, seconds float64, sh shape, fixed *map[string]float64) (*result, error) {
	in, _, err := setUp(w, seed, sh)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr := newTracer()
	r := &result{Name: w.name, Why: w.why}
	m := map[string]float64{}

	// Four windows, untraced and traced in turn, a fifth of the time each;
	// the rest of the time goes to the probes.
	dur := sh.window(seconds, 5)
	var untraced, traced []*window
	var phases []phaseStats
	var before, after map[string]float64
	if in.counters != nil {
		if before, err = in.counters(); err != nil {
			return nil, err
		}
	}
	var pool struct{ hits, misses, bytes int64 }
	for round := 0; round < 2; round++ {
		u, err := measure(in, dur, w.lapFrames(sh), nil, nil)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		p0 := poolStats()
		t, err := measure(in, dur, w.lapFrames(sh), tr, rec)
		if err != nil {
			return nil, err
		}
		p1 := poolStats()
		pool.hits += p1.Hits - p0.Hits
		pool.misses += p1.Misses - p0.Misses
		pool.bytes += p1.Bytes - p0.Bytes
		untraced, traced = append(untraced, u), append(traced, t)
		phases = append(phases, importPhases(tr, rec, in.call, in.perRank))
	}
	if in.counters != nil {
		// The child's recorder saw the untraced windows too; it always
		// records, so all four windows are its traced pass.
		if after, err = in.counters(); err != nil {
			return nil, err
		}
	}
	var p50u, p50t, cpuU []float64
	for i := range untraced {
		for _, w := range []*window{untraced[i], traced[i]} {
			r.Attempted += w.frames()
			r.Failed += w.failed
			r.Samples += w.samples()
			if w.firstFail != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: frame failed: %v\n", in.call, w.firstFail)
			}
		}
		p50u = append(p50u, median(untraced[i].frameMs()))
		p50t = append(p50t, median(traced[i].frameMs()))
		cpuU = append(cpuU, untraced[i].perFrame(ms(untraced[i].delta.cpu)))
	}
	m["harness.trace_overhead_ratio"] = median(p50t) / median(p50u)
	m["harness.round_spread"] = spread(p50u)

	// What the frames said about the layers they went through.
	var t tally
	if in.counters == nil {
		t = inProcessTally(in, tr, phases)
		if hm := pool.hits + pool.misses; hm > 0 {
			m["bufpool.hit_ratio"] = float64(pool.hits) / float64(hm)
		}
		m["bufpool.pool_bytes"] = float64(pool.bytes) / t.frames
	} else {
		t = childTally(in, before, after, r.Samples)
		m["rtserve.shed_ratio"] = float64(in.sums.sheds) / float64(max(in.sums.frames, 1))
		m["rtserve.png_bytes"] = float64(in.sums.pngBytes) / float64(max(in.sums.frames, 1))
	}
	perRank := t.frames * float64(in.ranks)
	m["compositor.self_ms"] = t.selfMs
	m["compose.over_px_per_frame"] = t.overPix / t.frames
	m["comm.msgs_per_frame"] = t.msgs / t.frames
	m["comm.bytes_per_frame"] = t.bytes / t.frames
	m["core.warp_ms"] = ms(t.warp) / t.frames
	for _, name := range []string{"encode", "send", "recv", "decode", "merge", "gather"} {
		m["compositor."+name+"_ms"] = ms(t.phase[name]) / perRank
	}
	m["telemetry.spans_per_frame"] = t.spans / t.frames
	m["core.render_ms"] = ms(in.sums.render) / float64(max(in.sums.frames, 1))
	m["core.composite_ms"] = ms(in.sums.composite) / float64(max(in.sums.frames, 1))
	if in.layerExtras != nil {
		if err := in.layerExtras(m, median(p50u)); err != nil {
			return nil, err
		}
	}

	r.Shares = layerShares(tr, in, t.phase, perRank, mean(append(p50u, p50t...)))

	// The layers on the workload's own data.
	pd, err := in.probe(tr)
	if err != nil {
		return nil, err
	}
	if *fixed == nil {
		if *fixed, err = fixedProbes(seed, sh, tr); err != nil {
			return nil, err
		}
	}
	for k, v := range *fixed {
		m[k] = v
	}
	if err := dataProbes(m, pd, tr, median(p50u), median(cpuU)); err != nil {
		return nil, err
	}

	dir, err := repoOut()
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	r.PerLayer = map[string]value{}
	for _, def := range perLayer {
		r.PerLayer[def.name] = value{m[def.name], def.unit}
	}
	return r, nil
}

// tally is what the traced frames of a workload reported about the layers
// they went through, whichever way it was collected.
type tally struct {
	frames               float64
	phase                map[string]time.Duration // the recorder's phases, over all ranks
	spans                float64                  // spans the recorder took
	selfMs               float64                  // compositor.self_ms
	overPix, msgs, bytes float64
	warp                 time.Duration
}

// inProcessTally reads the recorder and the reports of frames that ran in
// this process. Self time is the frame's wall time minus the slowest
// rank's phase sum, averaged over frames.
func inProcessTally(in *instance, tr *tracer, phases []phaseStats) tally {
	t := tally{frames: float64(max(in.sums.frames, 1)), phase: map[string]time.Duration{}}
	wall := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.name == "frame" {
			wall[s.frame] = s.end - s.start
		}
	}
	var self []float64
	for _, ps := range phases {
		t.spans += float64(ps.spans)
		for name, d := range ps.total {
			t.phase[name] += d
		}
		for frame, busiest := range ps.busiestRank {
			self = append(self, ms(wall[frame]-busiest))
		}
	}
	t.selfMs = mean(self)
	t.overPix, t.msgs, t.bytes = float64(in.sums.overPix), float64(in.sums.msgs), float64(in.sums.bytes)
	t.warp = in.sums.warp
	return t
}

// childTally reads what the server child's recorder counted between two
// scrapes of its /metrics. Its spans cannot be told apart by frame, so self
// time is the composition stage's mean wall time (X-Composite-Time) minus
// what a mean rank spent in the phases of that stage.
func childTally(in *instance, before, after map[string]float64, frames int) tally {
	d := func(name string) float64 { return after[name] - before[name] }
	t := tally{frames: float64(max(frames, 1)), phase: map[string]time.Duration{}}
	var stage time.Duration
	for name := range phaseLayer {
		t.phase[name] = time.Duration(d("phase_seconds_total:"+name) * float64(time.Second))
		t.spans += d("phase_spans_total:" + name)
		if name != "warp" {
			stage += t.phase[name]
		}
	}
	t.selfMs = ms(in.sums.composite)/float64(max(in.sums.frames, 1)) - ms(stage)/(t.frames*float64(in.ranks))
	t.overPix, t.msgs, t.bytes = d("over_pixels_total"), d("comm_msgs_sent_total"), d("comm_bytes_sent_total")
	t.warp = t.phase["warp"]
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerShares is the per-workload table of where frame time goes: every
// span's self time charged to its layer, as a share of all self time, with
// time blocked on other ranks kept apart under "<layer>:wait". For the
// server child there are no spans to nest, so a mean rank's phase times are
// set against the mean frame time and the rest is the server's own.
func layerShares(tr *tracer, in *instance, phase map[string]time.Duration, perRank, frameMs float64) map[string]float64 {
	busy, wait := map[string]time.Duration{}, map[string]time.Duration{}
	if in.counters == nil {
		busy, wait = tr.selfTimes()
	} else {
		rest := time.Duration(frameMs * float64(time.Millisecond))
		for name, d := range phase {
			per := time.Duration(float64(d) / max(perRank, 1))
			rest -= per
			if pl := phaseLayer[name]; pl.wait {
				wait[pl.layer] += per
			} else {
				busy[pl.layer] += per
			}
		}
		busy["cmd.rtserve"] = max(rest, 0)
	}
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	for _, d := range wait {
		total += d
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for l, d := range busy {
		shares[l] = float64(d) / float64(total)
	}
	for l, d := range wait {
		shares[l+":wait"] = float64(d) / float64(total)
	}
	return shares
}

// dataProbes times the codec, compose, fragstore, schedule and model layers
// on the workload's own composition input.
func dataProbes(m map[string]float64, pd probeData, tr *tracer, frameP50, cpuPerFrame float64) error {
	blocks := shippedBlocks(pd.sched, pd.layers)
	cp, err := probeCodec(pd.codec, blocks, tr)
	if err != nil {
		return err
	}
	m["codec.encode_ns_per_px"] = ns(cp.encode, cp.pixels)
	m["codec.decode_ns_per_px"] = ns(cp.decode, cp.pixels)
	m["codec.decode_over_ns_per_px"] = ns(cp.decodeOver, cp.pixels)
	m["codec.wire_over_raw_ratio"] = float64(cp.wire) / float64(max(cp.raw, 1))
	m["codec.expanded_blocks"] = float64(cp.expanded)

	over, px := probeOver(blocks, tr)
	m["compose.over_ns_per_px"] = ns(over, px)
	// Computed, not measured: the kernel reads two pixels and writes one.
	m["compose.over_gb_per_s"] = 6 / max(m["compose.over_ns_per_px"], 1e-9)

	c, err := newComposer(pd.sched, pd.layers, composeSpec{codec: pd.codec})
	if err != nil {
		return err
	}
	root, _, err := c.frame(nil)
	if err != nil {
		return err
	}
	m["compose.max_err_levels"] = float64(maxDiff(root, serialComposite(pd.layers)))

	merge, mergeEnc, mpx, err := probeMerge(pd.sched, pd.layers, pd.codec, tr)
	if err != nil {
		return err
	}
	m["fragstore.merge_ns_per_px"] = ns(merge, mpx)
	m["fragstore.merge_encoded_ns_per_px"] = ns(mergeEnc, mpx)

	m["schedule.steps"] = float64(len(pd.sched.Steps))
	m["schedule.msgs_per_frame"] = float64(pd.census.TotalMessages())
	m["schedule.bytes_per_frame"] = float64(pd.census.TotalBytes())

	// The paper's cost model with this machine's constants: Ts and Tp from
	// the ping-pong of the fabric the workload runs on (plus any injected
	// latency), To from the over kernel on the workload's own blocks.
	ts, tp := m["inproc.ts_us"]*1e-6, m["inproc.tp_ns_per_byte"]*1e-9
	if pd.tcp {
		ts, tp = m["tcpnet.ts_us"]*1e-6, m["tcpnet.tp_ns_per_byte"]*1e-9
	}
	to := m["compose.over_ns_per_px"] * 1e-9
	_, work := predict(pd.census, ts, tp, to) // injected latency is waiting, not work
	ts += pd.ts.Seconds()
	critical, _ := predict(pd.census, ts, tp, to)
	m["model.ts_us"], m["model.tp_ns_per_byte"], m["model.to_ns_per_px"] = ts*1e6, tp*1e9, to*1e9
	m["model.predicted_critical_ms"] = critical * 1e3
	m["model.predicted_work_ms"] = work * 1e3
	// With more ranks than cores only the work residual is meaningful; the
	// critical-path residual is reported, flagged oversubscribed in the README.
	m["model.work_residual_ratio"] = cpuPerFrame / max(work*1e3, 1e-9)
	m["model.critical_residual_ratio"] = frameP50 / max(critical*1e3, 1e-9)
	return nil
}

// fixedProbes times the layers no single workload isolates, always on the
// same inputs: the sparse disc partials for everything that composites, the
// head phantom for the renderer. A run over several workloads takes them once.
func fixedProbes(seed int64, sh shape, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	n := sh.probeFrames
	npix := sh.edge * sh.edge

	m["bufpool.get_put_ns"] = float64(probePool(npix / composeN))
	m["telemetry.span_ns"] = float64(probeSpan())
	d, err := probeAdmission()
	if err != nil {
		return nil, err
	}
	m["admission.admit_release_us"] = us(d)

	// Transports: half a round trip of a tiny and of a 1 MiB message.
	const mib = 1 << 20
	pp := func(prefix string, run func(fn func(c rtcomp.Comm) error) error) error {
		small, err := pingPong(run, 16, 40*n)
		if err != nil {
			return err
		}
		big, err := pingPong(run, mib, n)
		if err != nil {
			return err
		}
		m[prefix+".ts_us"] = us(small)
		m[prefix+".tp_ns_per_byte"] = float64(max(big-small, 0)) / mib
		return nil
	}
	if err := pp("inproc", runInproc2); err != nil {
		return nil, err
	}
	t0 := time.Now()
	mesh, err := meshUp(composeP)
	if err != nil {
		return nil, err
	}
	m["tcpnet.mesh_up_ms"] = ms(time.Since(t0))
	err = pp("tcpnet", runOnMesh(mesh))
	meshDown(mesh)
	if err != nil {
		return nil, err
	}

	// The executors against each other on the sparse partials.
	rng := rand.New(rand.NewSource(seed))
	layers := discLayers(rng, composeP, sh.edge)
	t0 = time.Now()
	sched, _, err := buildSchedule(composeP, composeN, npix)
	if err != nil {
		return nil, err
	}
	m["schedule.build_validate_us"] = us(time.Since(t0))
	// Every ratio comes from two configurations run frame about, so drift
	// on the machine reaches both sides alike.
	type side struct {
		spec composeSpec
		rec  bool // the program's recorder attached
	}
	pair := func(a, b side) (pa, pb float64, err error) {
		var cs [2]*composer
		var tcs [2]*traceCtx
		for i, sd := range []side{a, b} {
			sd.spec.codec = rtcomp.TRLE{}
			if cs[i], err = newComposer(sched, layers, sd.spec); err != nil {
				return 0, 0, err
			}
			defer cs[i].close()
			if sd.rec {
				tcs[i] = &traceCtx{rec: newRecorder()}
			}
		}
		var times [2][]float64
		for f := 0; f < n+n/10; f++ {
			for i := range cs {
				f0 := time.Now()
				if _, _, err := cs[i].frame(tcs[i]); err != nil {
					return 0, 0, err
				}
				if f >= n/10 { // the first tenth warms up
					times[i] = append(times[i], ms(time.Since(f0)))
				}
			}
		}
		return median(times[0]), median(times[1]), nil
	}
	var syncD0, syncD1 float64
	for _, d := range []struct {
		name  string
		delay time.Duration
	}{{"d0", 0}, {"d200us", 200 * time.Microsecond}, {"d1ms", time.Millisecond}} {
		var plan = delayPlan(d.delay)
		if d.delay == 0 {
			plan = nil // the bare fabric, not a zero-value wrap
		}
		sync, pipe, err := pair(side{spec: composeSpec{plan: plan}}, side{spec: composeSpec{plan: plan, pipeline: true}})
		if err != nil {
			return nil, err
		}
		m["compositor.pipe_over_sync."+d.name] = pipe / sync
		switch d.name {
		case "d0":
			syncD0 = sync
		case "d1ms":
			syncD1 = sync
		}
	}
	m["faulty.brownout_added_ms"] = syncD1 - syncD0
	for _, r := range []struct {
		name string
		b    side
	}{
		{"faulty.zero_plan_over_bare_ratio", side{spec: composeSpec{plan: delayPlan(0)}}},
		{"compositor.recover_over_failfast_ratio", side{spec: composeSpec{recover: true}}},
		{"telemetry.on_over_off_ratio", side{rec: true}},
	} {
		bare, other, err := pair(side{}, r.b)
		if err != nil {
			return nil, err
		}
		m[r.name] = other / bare
	}
	if m["compositor.tiles_inflight_max"], err = tilesInflightMax(sched, layers); err != nil {
		return nil, err
	}

	if d, err = probeSimulate(rng, sh.edge); err != nil {
		return nil, err
	}
	m["simnet.simulate_ms"] = ms(d)

	// Volumes and the renderer, on the two phantoms the workloads use.
	if d, err = probeVolume("engine", sh.serveN); err != nil {
		return nil, err
	}
	m["volume.build_engine_ms"] = ms(d)
	if d, err = probeVolume("head", sh.headN); err != nil {
		return nil, err
	}
	m["volume.build_head_ms"] = ms(d)
	scene, err := newHeadScene("head", sh.headN, sh.headEdge, headP, "nrt:4")
	if err != nil {
		return nil, err
	}
	_, factor, slab, warp, err := scene.slabs(orbit(seed)[0], tr)
	if err != nil {
		return nil, err
	}
	m["shearwarp.factor_us"], m["shearwarp.slab_ms_max"], m["shearwarp.warp_ms"] = us(factor), ms(slab), ms(warp)

	if d, err = probePNG(serialComposite(discLayers(rng, serveP, sh.serveEdge))); err != nil {
		return nil, err
	}
	m["raster.png_encode_ms"] = ms(d)
	return m, nil
}
