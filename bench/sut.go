package main

// Every call into the program under test lives in this file, so a refactor
// under the public facade touches the benchmark in one place only.
// End-to-end paths go through the rtcomp facade (Composite, RunInProcess,
// StartTCP, RenderParallelVolume, RenderParallel) and the built rtserve
// binary; layer probes call a short list of exported functions of the
// layer they time.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rtcomp"
	"rtcomp/internal/admission"
	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/model"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
)

// ---- inputs -----------------------------------------------------------

// noiseLayers are p general-alpha noise partials, 10 % blank: nothing a
// codec can compress, every pixel goes through the blended over branch.
func noiseLayers(rng *rand.Rand, p, edge int) []*rtcomp.Image {
	layers := make([]*rtcomp.Image, p)
	for r := range layers {
		layers[r] = raster.RandomImage(rng, edge, edge, 0.10)
	}
	return layers
}

// discLayers are the sparse partials of a depth-partitioned render seen
// from the side: one disc per rank, about 85 % blank, with seeded holes.
func discLayers(rng *rand.Rand, p, edge int) []*rtcomp.Image {
	layers := make([]*rtcomp.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, edge, edge, r, p)
	}
	return layers
}

// buildSchedule returns the paper's rotate-tiling schedule and its traffic
// census for an image of npix pixels; Validate proves it composites every
// pixel of every rank exactly once.
func buildSchedule(p, n, npix int) (*rtcomp.Schedule, *schedule.Census, error) {
	s, err := rtcomp.RT(p, n)
	if err != nil {
		return nil, nil, err
	}
	c, err := rtcomp.ValidateSchedule(s, npix)
	return s, c, err
}

func serialComposite(layers []*rtcomp.Image) *rtcomp.Image { return compose.SerialComposite(layers) }

func maxDiff(a, b *rtcomp.Image) int { return raster.MaxDiff(a, b) }

// ---- composition frames ------------------------------------------------

// composeSpec selects how a composer runs the same schedule and layers.
type composeSpec struct {
	codec    rtcomp.Codec
	pipeline bool         // per-tile pipelined executor, default window
	tcp      bool         // loopback socket mesh, brought up once and reused
	plan     *faulty.Plan // fault-injection wrap; nil = bare fabric
	recover  bool         // OnMissing: recover (buddy replication) instead of fail-fast
}

// frameCounts are the per-frame totals the program reports about itself.
type frameCounts struct {
	wire, overPix int64
	msgs, bytes   int64 // fabric totals including the gather
}

// composer runs composition frames: every rank enters rtcomp.Composite with
// its pre-built partial image, and the gather root returns the final image.
type composer struct {
	sched  *rtcomp.Schedule
	layers []*rtcomp.Image
	opts   rtcomp.CompositeOptions
	plan   *faulty.Plan
	mesh   []*tcpnet.Endpoint // nil = fresh in-process fabric per frame
	seen   []comm.Counters    // mesh counters at the end of the previous frame
}

func newComposer(sched *rtcomp.Schedule, layers []*rtcomp.Image, spec composeSpec) (*composer, error) {
	c := &composer{sched: sched, layers: layers, plan: spec.plan}
	c.opts = rtcomp.CompositeOptions{Codec: spec.codec, GatherRoot: 0}
	c.opts.Pipeline.Enabled = spec.pipeline
	if spec.recover {
		c.opts.OnMissing = compositor.Recover
		c.opts.RecvTimeout = 10 * time.Second
	}
	if spec.tcp {
		mesh, err := meshUp(sched.P)
		if err != nil {
			return nil, err
		}
		c.mesh, c.seen = mesh, make([]comm.Counters, sched.P)
	}
	return c, nil
}

// meshUp brings up a p-rank loopback socket mesh.
func meshUp(p int) ([]*tcpnet.Endpoint, error) {
	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		return nil, err
	}
	mesh := make([]*tcpnet.Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mesh[r], errs[r] = rtcomp.StartTCP(rtcomp.TCPConfig{
				Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 20 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		meshDown(mesh)
		return nil, fmt.Errorf("tcp mesh: %w", err)
	}
	return mesh, nil
}

func meshDown(mesh []*tcpnet.Endpoint) {
	for _, ep := range mesh {
		if ep != nil {
			ep.Close()
		}
	}
}

func (c *composer) close() { meshDown(c.mesh) }

// frame runs one composition. tc is nil in the untraced pass; in the traced
// pass it carries the harness tracer and the program's public recorder.
func (c *composer) frame(tc *traceCtx) (*rtcomp.Image, frameCounts, error) {
	var (
		mu   sync.Mutex
		root *rtcomp.Image
		cnt  frameCounts
	)
	opts := c.opts
	opts.Telemetry = tc.recorder()
	rank := func(ep rtcomp.Comm, before comm.Counters) error {
		if c.plan != nil {
			ep = faulty.Wrap(ep, *c.plan)
		}
		end := tc.call("rtcomp.Composite", "compositor", ep.Rank())
		img, rep, err := rtcomp.Composite(ep, c.sched, c.layers[ep.Rank()], opts)
		end()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if img != nil {
			root = img
		}
		if rep.Degraded || rep.Recovered {
			return fmt.Errorf("rank %d: frame degraded or recovered on a fault-free fabric", rep.Rank)
		}
		cnt.wire += rep.WireBytes
		cnt.overPix += rep.OverPixels
		cnt.msgs += rep.Comm.MsgsSent - before.MsgsSent
		cnt.bytes += rep.Comm.BytesSent - before.BytesSent
		if c.mesh != nil {
			c.seen[rep.Rank] = rep.Comm
		}
		return nil
	}
	var err error
	if c.mesh == nil {
		err = rtcomp.RunInProcess(c.sched.P, func(ep rtcomp.Comm) error { return rank(ep, comm.Counters{}) })
	} else {
		errs := make([]error, len(c.mesh))
		var wg sync.WaitGroup
		for r, ep := range c.mesh {
			wg.Add(1)
			go func(r int, ep *tcpnet.Endpoint) {
				defer wg.Done()
				errs[r] = rank(ep, c.seen[r])
			}(r, ep)
		}
		wg.Wait()
		err = errors.Join(errs...)
	}
	if err == nil && root == nil {
		err = errors.New("gather root returned no image")
	}
	return root, cnt, err
}

// ---- whole rendered frames --------------------------------------------

// headScene is what frame-head renders: the volume and its classification
// are built once in set-up, the camera changes per frame.
type headScene struct {
	cfg rtcomp.PipelineConfig
	vol *rtcomp.Volume
	tf  *rtcomp.TransferFunc
}

func newHeadScene(dataset string, volN, edge, p int, method string) (*headScene, error) {
	m, err := rtcomp.ParseMethod(method)
	if err != nil {
		return nil, err
	}
	vol := rtcomp.PhantomVolume(dataset, volN)
	if vol == nil {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	return &headScene{
		cfg: rtcomp.PipelineConfig{
			Dataset: dataset, VolumeN: volN, Width: edge, Height: edge,
			P: p, Method: m, Codec: "trle", Accelerate: true,
		},
		vol: vol, tf: rtcomp.TransferForDataset(dataset),
	}, nil
}

// frame renders one whole frame: render, encode, exchange, merge, gather, warp.
func (s *headScene) frame(cam rtcomp.Camera, rec *telemetry.Recorder) (*rtcomp.FrameReport, frameCounts, error) {
	cfg := s.cfg
	cfg.Camera, cfg.Telemetry = cam, rec
	rep, err := rtcomp.RenderParallelVolume(cfg, s.vol, s.tf)
	if err != nil {
		return nil, frameCounts{}, err
	}
	var cnt frameCounts
	for _, r := range rep.Reports {
		cnt.wire += r.WireBytes
		cnt.overPix += r.OverPixels
		cnt.msgs += r.Comm.MsgsSent
		cnt.bytes += r.Comm.BytesSent
	}
	return rep, cnt, nil
}

// serial renders the same frame without parallelism: the oracle.
func (s *headScene) serial(cam rtcomp.Camera) (*rtcomp.Image, error) {
	r := &shearwarp.Renderer{Vol: s.vol, TF: s.tf}
	return r.Render(cam, s.cfg.Width, s.cfg.Height)
}

// slabs renders the per-rank partial images of one camera the way the
// pipeline partitions them, and reports the shearwarp layer's own times.
func (s *headScene) slabs(cam rtcomp.Camera, tr *tracer) (layers []*rtcomp.Image, factor, slowest, warp time.Duration, err error) {
	r := &shearwarp.Renderer{Vol: s.vol, TF: s.tf}
	_, end := tr.begin("shearwarp.Factor", "shearwarp", 0, -1, 0)
	t0 := time.Now()
	view, err := r.Factor(cam)
	factor = time.Since(t0)
	end()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	parts, err := partition.Slabs1D(view.NK(), s.cfg.P)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for rank, sl := range parts {
		_, end := tr.begin("shearwarp.RenderSlabAccel", "shearwarp", 0, -1, rank)
		t0 := time.Now()
		img, err := r.RenderSlabAccel(view, sl.Lo, sl.Hi)
		slowest = max(slowest, time.Since(t0))
		end()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		layers = append(layers, img)
	}
	inter := compose.SerialComposite(layers)
	_, end = tr.begin("shearwarp.Warp", "shearwarp", 0, -1, 0)
	t0 = time.Now()
	_, err = r.Warp(view, inter, s.cfg.Width, s.cfg.Height)
	warp = time.Since(t0)
	end()
	return layers, factor, slowest, warp, err
}

// scheduleFor resolves the scene's method the way the pipeline does (an
// automatic block count follows the final image size) and takes its census
// for an intermediate image of npix pixels.
func (s *headScene) scheduleFor(npix int) (*rtcomp.Schedule, *schedule.Census, error) {
	m, err := s.cfg.Method.ResolveN(s.cfg.P, s.cfg.Width*s.cfg.Height)
	if err != nil {
		return nil, nil, err
	}
	sched, err := m.Schedule(s.cfg.P)
	if err != nil {
		return nil, nil, err
	}
	c, err := rtcomp.ValidateSchedule(sched, npix)
	return sched, c, err
}

// inProcessServeFrame is what rtserve does per request minus HTTP, admission
// and PNG: the baseline rtserve.overhead_ms is measured against.
func inProcessServeFrame(dataset string, volN, edge, p int, cam rtcomp.Camera) error {
	m, err := rtcomp.ParseMethod("nrt:auto")
	if err != nil {
		return err
	}
	_, err = rtcomp.RenderParallel(rtcomp.PipelineConfig{
		Dataset: dataset, VolumeN: volN, Camera: cam, Width: edge, Height: edge,
		P: p, Method: m, Codec: "trle", Accelerate: true, Telemetry: telemetry.New(),
	})
	return err
}

// ---- the rtserve binary -------------------------------------------------

// server is a running rtserve child.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// repoRoot finds the program's module root (the directory holding
// cmd/rtserve) at or above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rtserve", "main.go")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("cmd/rtserve not found at or above the working directory: run from the repository")
		}
		dir = up
	}
}

// startServer builds rtserve from source and starts it on a free loopback
// port; it returns once /metrics answers.
func startServer(p, volN, slots, queue int) (*server, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "rtserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rtserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/rtserve: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-listen", addr, "-p", strconv.Itoa(p), "-voln", strconv.Itoa(volN),
		"-slots", strconv.Itoa(slots), "-queue", strconv.Itoa(queue))
	cmd.Stderr = io.Discard
	// Should the benchmark be killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, client: &http.Client{Timeout: 60 * time.Second}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := s.get("/metrics"); err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("rtserve did not answer /metrics within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the child and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a child that already exited is fine
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.client.CloseIdleConnections()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode}
	}
	return body, nil
}

type statusError struct{ code int }

func (e *statusError) Error() string { return "http status " + strconv.Itoa(e.code) }

// renderResult is one answered GET /render.
type renderResult struct {
	pngBytes          int
	render, composite time.Duration // the program's own X-Render-Time / X-Composite-Time
}

// render fetches one frame until the PNG body is fully read and checks it:
// status 200, a PNG of the requested size (header always, the whole image
// stream when full is set).
func (s *server) render(dataset string, size int, cam rtcomp.Camera, full bool) (renderResult, error) {
	url := fmt.Sprintf("%s/render?dataset=%s&size=%d&codec=trle&yaw=%.6f&pitch=%.6f", s.base, dataset, size, cam.Yaw, cam.Pitch)
	resp, err := s.client.Get(url)
	if err != nil {
		return renderResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return renderResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return renderResult{}, &statusError{resp.StatusCode}
	}
	w, h := 0, 0
	if full {
		img, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			return renderResult{}, fmt.Errorf("png: %w", err)
		}
		w, h = img.Bounds().Dx(), img.Bounds().Dy()
	} else {
		cfg, err := png.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			return renderResult{}, fmt.Errorf("png header: %w", err)
		}
		w, h = cfg.Width, cfg.Height
	}
	if w != size || h != size {
		return renderResult{}, fmt.Errorf("png is %dx%d, want %dx%d", w, h, size, size)
	}
	res := renderResult{pngBytes: len(body)}
	res.render, _ = time.ParseDuration(resp.Header.Get("X-Render-Time"))
	res.composite, _ = time.ParseDuration(resp.Header.Get("X-Composite-Time"))
	return res, nil
}

// serverTotals are the child's cumulative counters, read from its own
// public surfaces: /proc for CPU, /debug/vars for the heap, /metrics for
// what the recorder counted.
type serverTotals struct {
	procStats
	counters map[string]float64 // summed over ranks; phases as "phase:<name>"
}

var metricLine = regexp.MustCompile(`^rtcomp_([a-z_]+)\{([^}]*)\} ([0-9.eE+-]+)$`)
var phaseLabel = regexp.MustCompile(`phase="([a-z]+)"`)

func (s *server) cpu() (time.Duration, error) { return childCPU(s.cmd.Process.Pid) }

func (s *server) totals() (serverTotals, error) {
	var t serverTotals
	cpu, err := s.cpu()
	if err != nil {
		return t, err
	}
	t.cpu = cpu
	vars, err := s.get("/debug/vars")
	if err != nil {
		return t, err
	}
	var v struct {
		Memstats struct{ Mallocs, TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return t, err
	}
	t.mallocs, t.allocBytes = v.Memstats.Mallocs, v.Memstats.TotalAlloc
	text, err := s.get("/metrics")
	if err != nil {
		return t, err
	}
	t.counters = map[string]float64{}
	for _, line := range bytes.Split(text, []byte("\n")) {
		m := metricLine.FindSubmatch(line)
		if m == nil {
			continue
		}
		val, err := strconv.ParseFloat(string(m[3]), 64)
		if err != nil {
			continue
		}
		name := string(m[1])
		if ph := phaseLabel.FindSubmatch(m[2]); ph != nil {
			name += ":" + string(ph[1])
		}
		t.counters[name] += val
	}
	return t, nil
}

// ---- layer probes -------------------------------------------------------

// shippedBlocks are the pixel blocks a schedule puts on the wire for these
// layers: every rank's initial blocks (what step 1 ships) and the blocks of
// the finished composite (what the last step and the gather ship).
func shippedBlocks(sched *rtcomp.Schedule, layers []*rtcomp.Image) [][]byte {
	var blocks [][]byte
	take := func(rank int, img *rtcomp.Image) {
		st := fragstore.New(rank, sched, img)
		for _, b := range st.Blocks() {
			for _, f := range st.Frags(b) {
				blocks = append(blocks, append([]byte(nil), f.Data...))
			}
		}
		st.Release()
	}
	for r, l := range layers {
		take(r, l)
	}
	take(0, compose.SerialComposite(layers))
	return blocks
}

// codecProbe times a codec on the blocks and counts what it does to them.
type codecProbe struct {
	encode, decode, decodeOver time.Duration
	pixels                     int64
	raw, wire                  int64
	expanded                   int
}

func probeCodec(cdc rtcomp.Codec, blocks [][]byte, tr *tracer) (codecProbe, error) {
	var p codecProbe
	var enc, dec []byte
	od, fused := cdc.(interface {
		DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error)
	})
	for _, b := range blocks {
		npix := len(b) / raster.BytesPerPixel
		_, end := tr.begin("codec.EncodeAppend", "codec", 0, -1, 0)
		t0 := time.Now()
		enc = cdc.EncodeAppend(enc[:0], b)
		p.encode += time.Since(t0)
		end()
		_, end = tr.begin("codec.DecodeInto", "codec", 0, -1, 0)
		t0 = time.Now()
		out, err := cdc.DecodeInto(dec, enc, npix)
		p.decode += time.Since(t0)
		end()
		if err != nil {
			return p, err
		}
		if !bytes.Equal(out, b) {
			return p, fmt.Errorf("codec %s: block does not survive the round trip", cdc.Name())
		}
		dec = out
		if fused {
			// dec holds the block itself: composite the encoded copy over it.
			_, end = tr.begin("codec.DecodeOver", "codec", 0, -1, 0)
			t0 = time.Now()
			_, err = od.DecodeOver(dec, enc, npix, true)
			p.decodeOver += time.Since(t0)
			end()
			if err != nil {
				return p, err
			}
		}
		p.pixels += int64(npix)
		p.raw += int64(len(b))
		p.wire += int64(len(enc))
		if len(enc) > len(b) {
			p.expanded++
		}
	}
	return p, nil
}

// probeOver times the over kernel compositing each block over the next.
func probeOver(blocks [][]byte, tr *tracer) (time.Duration, int64) {
	var d time.Duration
	var px int64
	var dst []byte
	for i := 0; i+1 < len(blocks); i++ {
		f, b := blocks[i], blocks[i+1]
		if len(f) != len(b) {
			continue
		}
		if cap(dst) < len(f) {
			dst = make([]byte, len(f))
		}
		_, end := tr.begin("compose.OverU8", "compose", 0, -1, 0)
		t0 := time.Now()
		px += int64(compose.OverU8(dst[:len(f)], f, b))
		d += time.Since(t0)
		end()
	}
	return d, px
}

// probeMerge times fragstore on the blocks of ranks 0 and 1: MergeFragments
// on decoded fragments, Store.MergeEncoded on still-encoded ones.
func probeMerge(sched *rtcomp.Schedule, layers []*rtcomp.Image, cdc rtcomp.Codec, tr *tracer) (merge, mergeEnc time.Duration, px int64, err error) {
	front := fragstore.New(0, sched, layers[0])
	defer front.Release()
	for _, b := range front.Blocks() {
		back := fragstore.New(1, sched, layers[1])
		pair := append(copyFrags(front.Frags(b)), copyFrags(back.Frags(b))...)
		_, end := tr.begin("fragstore.MergeFragments", "fragstore", 0, -1, 0)
		t0 := time.Now()
		out, n, err := fragstore.MergeFragments(pair)
		merge += time.Since(t0)
		end()
		if err != nil {
			return 0, 0, 0, err
		}
		fragstore.ReleaseAll(out)
		px += n

		var incoming []fragstore.EncodedFragment
		for _, f := range front.Frags(b) {
			incoming = append(incoming, fragstore.EncodedFragment{Rng: f.Rng, Enc: cdc.EncodeAppend(nil, f.Data)})
		}
		_, end = tr.begin("fragstore.MergeEncoded", "fragstore", 0, -1, 0)
		t0 = time.Now()
		_, err = back.MergeEncoded(b, incoming, cdc)
		mergeEnc += time.Since(t0)
		end()
		back.Release()
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return merge, mergeEnc, px, nil
}

func copyFrags(frags []fragstore.Fragment) []fragstore.Fragment {
	out := make([]fragstore.Fragment, len(frags))
	for i, f := range frags {
		buf := bufpool.Get(len(f.Data))
		copy(buf, f.Data)
		out[i] = fragstore.Fragment{Rng: f.Rng, Data: buf}
	}
	return out
}

// poolStats snapshots the process-wide buffer pool.
func poolStats() bufpool.Stats { return bufpool.Default.Stats() }

// probePool times one Get+Put of a block-sized buffer.
func probePool(n int) time.Duration {
	const iters = 20000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		bufpool.Default.Put(bufpool.Default.Get(n))
	}
	return time.Since(t0) / iters
}

// pingPong measures half the round trip of an n-byte message between two
// ranks of a fabric: run calls fn for both ranks.
func pingPong(run func(fn func(c rtcomp.Comm) error) error, n, iters int) (time.Duration, error) {
	var half time.Duration
	payload := make([]byte, n)
	err := run(func(c rtcomp.Comm) error {
		peer := 1 - c.Rank()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, i, payload); err != nil {
					return err
				}
			}
			buf, err := c.Recv(peer, i)
			if err != nil {
				return err
			}
			bufpool.Put(buf)
			if c.Rank() == 1 {
				if err := c.Send(peer, i, payload); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			half = time.Since(t0) / time.Duration(2*iters)
		}
		return nil
	})
	return half, err
}

func runInproc2(fn func(c rtcomp.Comm) error) error { return inproc.Run(2, fn) }

// runOnMesh runs fn on ranks 0 and 1 of a socket mesh.
func runOnMesh(mesh []*tcpnet.Endpoint) func(fn func(c rtcomp.Comm) error) error {
	return func(fn func(c rtcomp.Comm) error) error {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = fn(mesh[r])
			}(r)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

// predict evaluates the paper's cost model on a schedule census: the
// critical path (Table 1's reading) and the total work over all ranks.
func predict(c *schedule.Census, ts, tp, to float64) (critical, work float64) {
	critical = model.PredictFromCensus(c, model.Params{Ts: ts, Tp: tp, To: to})
	for _, step := range c.PerRank {
		for _, r := range step {
			work += float64(r.MsgsSent)*ts + float64(r.BytesSent)*tp + float64(r.OverPixels)*to
		}
	}
	return critical, work
}

// probeSimulate times the virtual-time simulator on RT(32,4).
func probeSimulate(rng *rand.Rand, edge int) (time.Duration, error) {
	sched, err := rtcomp.RT(32, 4)
	if err != nil {
		return 0, err
	}
	layers := discLayers(rng, 32, edge)
	t0 := time.Now()
	_, err = rtcomp.Simulate(sched, layers, rtcomp.TRLE{}, rtcomp.SP2Calibrated())
	return time.Since(t0), err
}

// probeVolume times a phantom build.
func probeVolume(dataset string, n int) (time.Duration, error) {
	t0 := time.Now()
	if rtcomp.PhantomVolume(dataset, n) == nil {
		return 0, fmt.Errorf("unknown dataset %q", dataset)
	}
	return time.Since(t0), nil
}

// probePNG times the PNG encoding of an image.
func probePNG(img *rtcomp.Image) (time.Duration, error) {
	t0 := time.Now()
	err := img.WritePNG(io.Discard)
	return time.Since(t0), err
}

// probeAdmission times an uncontended admit+release.
func probeAdmission() (time.Duration, error) {
	const iters = 5000
	ctl := admission.New(admission.Config{Slots: 2, Queue: 2}, nil)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		release, err := ctl.Admit(context.Background())
		if err != nil {
			return 0, err
		}
		release()
	}
	return time.Since(t0) / iters, nil
}

// probeSpan times one Span()+end on the program's recorder.
func probeSpan() time.Duration {
	const iters = 20000
	rec := telemetry.New()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		rec.Span(0, telemetry.PhaseMerge, telemetry.CatCompute, 0)()
	}
	return time.Since(t0) / iters
}

// ---- the traced pass ----------------------------------------------------

// traceCtx is handed to a frame in the traced pass only: the harness
// tracer, the frame's span, and the program's public recorder switched on.
// A nil *traceCtx is the untraced pass.
type traceCtx struct {
	tr    *tracer
	rec   *telemetry.Recorder
	span  int // the frame's span id
	frame int
}

func newRecorder() *telemetry.Recorder { return telemetry.New() }

func (tc *traceCtx) recorder() *telemetry.Recorder {
	if tc == nil {
		return nil
	}
	return tc.rec
}

// call opens a harness span around one call into the program.
func (tc *traceCtx) call(name, layer string, track int) func() {
	if tc == nil {
		return nop
	}
	_, end := tc.tr.begin(name, layer, tc.span, tc.frame, track)
	return end
}

// phaseLayer maps the program's own phase names to the layer that does the
// work. The merge phase is fragstore.MergeEncoded: with a fused codec it
// holds the decode and the over kernel too. Time in recv and gather is time
// blocked on other ranks.
var phaseLayer = map[string]struct {
	layer string
	wait  bool
}{
	telemetry.PhaseRender: {"shearwarp", false},
	telemetry.PhaseWarp:   {"shearwarp", false},
	telemetry.PhaseEncode: {"codec", false},
	telemetry.PhaseDecode: {"codec", false},
	telemetry.PhaseMerge:  {"fragstore", false},
	telemetry.PhaseSend:   {"transport", false},
	telemetry.PhaseRecv:   {"transport", true},
	telemetry.PhaseGather: {"transport", true},
}

// phaseStats is what one traced window's recorder held.
type phaseStats struct {
	total       map[string]time.Duration // by phase name, over all ranks and frames
	spans       int
	busiestRank map[int]time.Duration // per frame: the largest per-rank phase sum
}

// importPhases copies the spans the program's recorder took into the
// tracer, each as a child of the harness span named call that was open on
// its rank (or, when the harness made one call for all ranks, on track 0)
// at the time.
func importPhases(tr *tracer, rec *telemetry.Recorder, call string, perRank bool) phaseStats {
	st := phaseStats{total: map[string]time.Duration{}, busiestRank: map[int]time.Duration{}}
	parents := map[int][]span{}
	for _, s := range tr.spans {
		if s.name == call && s.end >= 0 {
			parents[s.track] = append(parents[s.track], s)
		}
	}
	type frameRank struct{ frame, rank int }
	perFR := map[frameRank]time.Duration{}
	for _, ps := range rec.Spans() {
		st.spans++
		pl, ok := phaseLayer[ps.Name]
		if !ok {
			continue // container spans (a pipelined tile) hold the phases above
		}
		d := ps.End - ps.Start
		st.total[ps.Name] += d
		track := 0
		if perRank {
			track = ps.Rank
		}
		cands := parents[track]
		at := rec.Epoch().Add(ps.Start).Sub(tr.epoch)
		i := sort.Search(len(cands), func(i int) bool { return cands[i].start > at }) - 1
		if i < 0 || cands[i].end < at {
			continue
		}
		par := cands[i]
		tr.add(span{parent: par.id, name: ps.Name, layer: pl.layer, frame: par.frame, track: ps.Rank, wait: pl.wait},
			rec.Epoch().Add(ps.Start), d)
		perFR[frameRank{par.frame, ps.Rank}] += d
	}
	for fr, d := range perFR {
		st.busiestRank[fr.frame] = max(st.busiestRank[fr.frame], d)
	}
	return st
}

// tilesInflightMax runs one pipelined frame with the recorder on and reads
// the peak number of tiles any rank had in flight.
func tilesInflightMax(sched *rtcomp.Schedule, layers []*rtcomp.Image) (float64, error) {
	c, err := newComposer(sched, layers, composeSpec{codec: rtcomp.TRLE{}, pipeline: true})
	if err != nil {
		return 0, err
	}
	rec := telemetry.New()
	if _, _, err := c.frame(&traceCtx{rec: rec}); err != nil {
		return 0, err
	}
	var peak int64
	for k, v := range rec.Counters() {
		if k.Name == telemetry.CtrPipeInflightMax {
			peak = max(peak, v)
		}
	}
	return float64(peak), nil
}

type (
	censusT       = *schedule.Census
	traceRecorder = *telemetry.Recorder
)

// delayPlan holds back every delivery by d: fixed latency, no loss.
func delayPlan(d time.Duration) *faulty.Plan { return &faulty.Plan{Brownout: d} }
