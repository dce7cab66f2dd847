package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp"
)

// shape is the size of a run. The default is the ledger's; -smoke shrinks
// every input so the whole matrix finishes in seconds.
type shape struct {
	edge        int // compose-* image edge
	headN       int // frame-head volume edge
	headEdge    int // frame-head image edge
	serveN      int // serve-closed volume edge
	serveEdge   int // serve-closed image edge
	setups      int // set-ups per run; setup_s is their median
	rounds      int // timed windows per workload: the two halves of a run
	frames      int // frames per window and client; 0 = fill the window's time
	probeFrames int // frames behind each ratio the fixed probes report
}

// window is the length of one of n timed windows that share seconds; the
// smoke shape runs a single lap whatever the time.
func (sh shape) window(seconds float64, n int) time.Duration {
	if sh.frames > 0 {
		return 0
	}
	return time.Duration(seconds / float64(n) * float64(time.Second))
}

var ledgerShape = shape{edge: 512, headN: 128, headEdge: 512, serveN: 96, serveEdge: 384, setups: 5, rounds: 2, probeFrames: 100}
var smokeShape = shape{edge: 64, headN: 32, headEdge: 64, serveN: 32, serveEdge: 64, setups: 1, rounds: 1, frames: 2, probeFrames: 10}

const (
	composeP   = 8 // ranks of the compose-* workloads
	composeN   = 4 // the paper's N: initial blocks per sub-image
	headP      = 4
	serveP     = 4
	orbitLen   = 12 // camera positions per turn; one turn is one lap
	composeTol = 3  // levels a parallel composite may differ from the serial one: 8-bit over is not associative
	serialTol  = 8  // levels a parallel rendered frame may differ from the serial render (6 observed)
	brownout   = time.Millisecond
)

// workload is one row of the ledger.
type workload struct {
	name, why string
	warmup    int // frames per client discarded at the end of each set-up
	lap       int // frames per client in a lap: about a quarter of a second of identical work
	setup     func(name string, seed int64, sh shape) (*instance, error)
}

// lapFrames is the lap at this shape; the smoke shape runs sh.frames frames.
func (w *workload) lapFrames(sh shape) int {
	if sh.frames > 0 {
		return sh.frames
	}
	return w.lap
}

var workloads = []workload{
	{"compose-dense-raw", "codec bypassed, incompressible general-alpha partials: over kernel, fragstore merge and fabric copies do the work", 60, 48, setupCompose},
	{"compose-sparse-trle", "the paper's case, sparse partials under TRLE: encode and fused decode-over do the work, the dense over kernel little", 60, 64, setupCompose},
	{"compose-tcp-noise-rle", "loopback socket mesh with RLE on noise it cannot compress: transport does the work and the codec expands the payload", 60, 32, setupCompose},
	{"compose-delay-pipe", "1 ms injected delivery latency under the pipelined executor: latency-bound, CPU kernels barely matter", 60, 32, setupCompose},
	{"frame-head", "whole rendered frame on a seeded orbit: shear-warp rendering dominates, composition is a small share", orbitLen, orbitLen, setupHead},
	{"serve-closed", "two closed-loop HTTP clients against the built rtserve: admission, per-request volume build, PNG, HTTP", orbitLen, orbitLen, setupServe},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// totals are a workload's cumulative costs; window deltas give the
// per-frame metrics.
type totals struct {
	procStats
	wire int64
}

// layerSums is what the frames of a traced window reported about the
// layers they went through.
type layerSums struct {
	mu                      sync.Mutex
	frames                  int
	overPix, msgs, bytes    int64
	render, composite, warp time.Duration
	pngBytes                int64
	sheds                   int
}

func (s *layerSums) addCounts(c frameCounts) {
	s.mu.Lock()
	s.frames++
	s.overPix += c.overPix
	s.msgs += c.msgs
	s.bytes += c.bytes
	s.mu.Unlock()
}

// probeData is the workload's own composition input, for the layer probes.
type probeData struct {
	sched  *rtcomp.Schedule
	census censusT
	layers []*rtcomp.Image
	codec  rtcomp.Codec
	ts     time.Duration // injected per-message latency the model must know about
	tcp    bool
}

// instance is a set-up workload, ready to run frames.
type instance struct {
	clients int
	ranks   int
	// frame runs frame i of one closed-loop client and checks its output.
	frame func(client, i int, tc *traceCtx) error
	stats func() (totals, error)
	// cpu reads the user+system time of the process the program runs in;
	// cheap enough to call around every lap.
	cpu   func() (time.Duration, error)
	close func()
	// counters reads what a child process's recorder has counted so far;
	// nil when the program runs inside the benchmark process.
	counters func() (map[string]float64, error)

	call    string // the harness span the program's phases hang under
	perRank bool   // one such span per rank (else one per frame)
	probe   func(tr *tracer) (probeData, error)
	wire    atomic.Int64
	sums    layerSums
	next    []int // per client: the next frame index
	// extra per-layer numbers only this workload can give
	layerExtras func(m map[string]float64, untracedP50 float64) error
}

func (in *instance) selfTotals() (totals, error) {
	return totals{procStats: selfStats(), wire: in.wire.Load()}, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func imageHash(img *rtcomp.Image) uint32 { return crc32.Checksum(img.Pix, crcTable) }

var errHash = errors.New("frame differs from the first frame of the same input")

func setupCompose(name string, seed int64, sh shape) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	var (
		layers []*rtcomp.Image
		spec   composeSpec
	)
	switch name {
	case "compose-dense-raw":
		layers, spec = noiseLayers(rng, composeP, sh.edge), composeSpec{codec: rtcomp.Raw{}}
	case "compose-sparse-trle":
		layers, spec = discLayers(rng, composeP, sh.edge), composeSpec{codec: rtcomp.TRLE{}}
	case "compose-tcp-noise-rle":
		layers, spec = noiseLayers(rng, composeP, sh.edge), composeSpec{codec: rtcomp.RLE{}, tcp: true}
	case "compose-delay-pipe":
		layers, spec = discLayers(rng, composeP, sh.edge), composeSpec{codec: rtcomp.TRLE{}, pipeline: true, plan: delayPlan(brownout)}
	}
	sched, census, err := buildSchedule(composeP, composeN, sh.edge*sh.edge)
	if err != nil {
		return nil, err
	}
	c, err := newComposer(sched, layers, spec)
	if err != nil {
		return nil, err
	}
	in := &instance{clients: 1, ranks: composeP, close: c.close, call: "rtcomp.Composite", perRank: true}
	in.stats, in.cpu = in.selfTotals, selfCPU

	// Oracle: the first frame is within composeTol levels of the serial
	// composite, every later frame is byte-identical to the first.
	first, _, err := c.frame(nil)
	if err != nil {
		c.close()
		return nil, err
	}
	if d := maxDiff(first, serialComposite(layers)); d > composeTol {
		c.close()
		return nil, fmt.Errorf("%s: root image is %d levels from the serial composite, want <= %d", name, d, composeTol)
	}
	if spec.pipeline {
		// The pipelined executor must reproduce the synchronous one byte for
		// byte: the same layers through compose-sparse-trle's configuration.
		sync, err := newComposer(sched, layers, composeSpec{codec: spec.codec})
		if err != nil {
			c.close()
			return nil, err
		}
		ref, _, err := sync.frame(nil)
		if err != nil || imageHash(ref) != imageHash(first) {
			c.close()
			return nil, fmt.Errorf("%s: pipelined frame differs from the synchronous one (err %v)", name, err)
		}
	}
	want := imageHash(first)
	in.frame = func(_, _ int, tc *traceCtx) error {
		root, cnt, err := c.frame(tc)
		if err != nil {
			return err
		}
		if imageHash(root) != want {
			return errHash
		}
		in.wire.Add(cnt.wire)
		if tc != nil {
			in.sums.addCounts(cnt)
		}
		return nil
	}
	in.probe = func(*tracer) (probeData, error) {
		pd := probeData{sched: sched, census: census, layers: layers, codec: spec.codec, tcp: spec.tcp}
		if spec.plan != nil {
			pd.ts = brownout
		}
		return pd, nil
	}
	return in, nil
}

// orbit is a closed camera path of orbitLen positions: a full turn of yaw,
// so the principal viewing axis changes, with a pitch that swings once per
// turn. The seed sets at which of the positions the path starts, nothing
// else: every seed's lap is the same orbitLen frames, so neither frame cost
// nor wire bytes depend on it (a free phase moved the wire bytes of a lap
// by 3 % between seeds).
func orbit(seed int64) []rtcomp.Camera {
	start := rand.New(rand.NewSource(seed)).Intn(orbitLen)
	cams := make([]rtcomp.Camera, orbitLen)
	for i := range cams {
		t := 2 * math.Pi * float64((start+i)%orbitLen) / orbitLen
		cams[i] = rtcomp.Camera{Yaw: math.Remainder(t, 2*math.Pi), Pitch: 0.3 * math.Sin(t)}
	}
	return cams
}

func setupHead(_ string, seed int64, sh shape) (*instance, error) {
	scene, err := newHeadScene("head", sh.headN, sh.headEdge, headP, "nrt:4")
	if err != nil {
		return nil, err
	}
	cams := orbit(seed)
	in := &instance{clients: 1, ranks: headP, close: func() {}, call: "rtcomp.RenderParallelVolume"}
	in.stats, in.cpu = in.selfTotals, selfCPU

	// Oracle: three orbit positions within tolerance of the serial render;
	// every position's hash is pinned by its first frame and must not change.
	for i := 0; i < len(cams); i += len(cams) / 3 {
		rep, _, err := scene.frame(cams[i], nil)
		if err != nil {
			return nil, err
		}
		ref, err := scene.serial(cams[i])
		if err != nil {
			return nil, err
		}
		if d := maxDiff(rep.Image, ref); d > serialTol {
			return nil, fmt.Errorf("frame-head: camera %d is %d levels from the serial render, want <= %d", i, d, serialTol)
		}
	}
	want := map[int]uint32{}
	in.frame = func(_, i int, tc *traceCtx) error {
		k := i % len(cams)
		end := tc.call(in.call, "core", 0)
		rep, cnt, err := scene.frame(cams[k], tc.recorder())
		end()
		if err != nil {
			return err
		}
		h := imageHash(rep.Image)
		if w, pinned := want[k]; !pinned {
			want[k] = h
		} else if h != w {
			return errHash
		}
		in.wire.Add(cnt.wire)
		if tc != nil {
			in.sums.addCounts(cnt)
			in.sums.mu.Lock()
			in.sums.render += rep.RenderTime
			in.sums.composite += rep.CompositeAll
			in.sums.warp += rep.WarpTime
			in.sums.mu.Unlock()
		}
		return nil
	}
	in.probe = func(tr *tracer) (probeData, error) { return sceneProbe(scene, cams[0], tr) }
	return in, nil
}

// sceneProbe renders the per-rank partials of one camera for the layer
// probes, with the schedule the pipeline would pick for them.
func sceneProbe(scene *headScene, cam rtcomp.Camera, tr *tracer) (probeData, error) {
	layers, _, _, _, err := scene.slabs(cam, tr)
	if err != nil {
		return probeData{}, err
	}
	sched, census, err := scene.scheduleFor(layers[0].NPixels())
	if err != nil {
		return probeData{}, err
	}
	return probeData{sched: sched, census: census, layers: layers, codec: rtcomp.TRLE{}}, nil
}

func setupServe(_ string, seed int64, sh shape) (*instance, error) {
	srv, err := startServer(serveP, sh.serveN, 2, 2)
	if err != nil {
		return nil, err
	}
	cams := orbit(seed)
	in := &instance{clients: 2, ranks: serveP, close: srv.stop, call: "GET /render"}
	in.stats = func() (totals, error) {
		t, err := srv.totals()
		return totals{procStats: t.procStats, wire: int64(t.counters["wire_bytes_total"])}, err
	}
	in.cpu = srv.cpu
	in.counters = func() (map[string]float64, error) {
		t, err := srv.totals()
		return t.counters, err
	}
	in.frame = func(client, i int, tc *traceCtx) error {
		// The two clients walk the orbit half a turn apart.
		cam := cams[(client*len(cams)/2+i)%len(cams)]
		end := tc.call(in.call, "cmd.rtserve", client)
		// Oracle: status 200 and a PNG of the right size on every frame;
		// the whole image stream is decoded once a lap, because decoding
		// every frame would take the CPU the server is being measured on.
		res, err := srv.render("engine", sh.serveEdge, cam, i%orbitLen == 0)
		end()
		var se *statusError
		if tc != nil {
			in.sums.mu.Lock()
			in.sums.frames++
			in.sums.render += res.render
			in.sums.composite += res.composite
			in.sums.pngBytes += int64(res.pngBytes)
			if errors.As(err, &se) && se.code == 503 {
				in.sums.sheds++
			}
			in.sums.mu.Unlock()
		}
		return err
	}
	in.probe = func(tr *tracer) (probeData, error) {
		scene, err := newHeadScene("engine", sh.serveN, sh.serveEdge, serveP, "nrt:auto")
		if err != nil {
			return probeData{}, err
		}
		return sceneProbe(scene, cams[0], tr)
	}
	in.layerExtras = func(m map[string]float64, untracedP50 float64) error {
		// What rtserve adds to a frame: its p50 minus the p50 of the same
		// renders run in this process under the same two-client load.
		var mu sync.Mutex
		var base []float64
		errs := make([]error, in.clients)
		var wg sync.WaitGroup
		for c := 0; c < in.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < orbitLen && errs[c] == nil; i++ {
					t0 := time.Now()
					errs[c] = inProcessServeFrame("engine", sh.serveN, sh.serveEdge, serveP, cams[(c*len(cams)/2+i)%len(cams)])
					mu.Lock()
					base = append(base, ms(time.Since(t0)))
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		m["rtserve.overhead_ms"] = untracedP50 - median(base)
		return errors.Join(errs...)
	}
	return in, nil
}
