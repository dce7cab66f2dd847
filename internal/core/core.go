// Package core is the library facade: it wires the full parallel volume
// rendering pipeline of the paper — data partitioning, shear-warp
// rendering, image composition, final warp — behind a single configuration
// struct, running either on the in-process goroutine fabric or on caller-
// provided communicators (one OS process per rank over TCP).
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/gray"
	"rtcomp/internal/model"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// Method selects a composition method.
type Method struct {
	// Kind is one of "bs" (binary-swap), "pp" (parallel-pipelined),
	// "ds" (direct-send), "tree" (binary tree), "radixk" (radix-k with
	// balanced factors), "nrt" (N_RT), "2nrt" (2N_RT) or "rt"
	// (rotate-tiling without the paper's parity restrictions).
	Kind string
	// N is the number of initial blocks for the rotate-tiling kinds.
	N int
}

// maxMethodN is the largest block count ParseMethod accepts: far above any N
// the paper's figures, the experiments or the planner use (32 at most), and
// small enough that a caller spelling N out cannot make a frame build a
// schedule costing more than the frame. Method input arrives from outside
// (rtserve's query, every tool's -method flag) before admission control.
const maxMethodN = 1024

// ParseMethod parses "bs", "pp", "ds", "nrt:3", "2nrt:4", "rt:5". For the
// rotate-tiling kinds, ":auto" defers the block count to the census
// predictor, which a frame consults for the intermediate image its ranks
// composite (see Method.ResolveN and model.AutoN); a Method with N = 0 means
// the same. An explicit N must be in [1, maxMethodN].
func ParseMethod(s string) (Method, error) {
	kind, nstr, hasN := strings.Cut(s, ":")
	m := Method{Kind: kind, N: 4}
	if hasN {
		if nstr == "auto" {
			m.N = 0
		} else {
			n, err := strconv.Atoi(nstr)
			if err != nil {
				return Method{}, fmt.Errorf("core: bad method %q: %v", s, err)
			}
			if n < 1 || n > maxMethodN {
				return Method{}, fmt.Errorf("core: bad method %q: N must be auto or in [1, %d]", s, maxMethodN)
			}
			m.N = n
		}
	}
	switch kind {
	case "bs", "pp", "ds", "tree", "radixk", "nrt", "2nrt", "rt":
		return m, nil
	}
	return Method{}, fmt.Errorf("core: unknown method %q", s)
}

// rotateTiling reports whether the kind is one of the rotate-tiling
// variants — the kinds N means something to.
func (m Method) rotateTiling() bool {
	switch m.Kind {
	case "nrt", "2nrt", "rt":
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (m Method) String() string {
	if m.rotateTiling() {
		return fmt.Sprintf("%s:%d", m.Kind, m.N)
	}
	return m.Kind
}

// inProcessCost is the cost triple an automatic block count is planned with
// for this repository's own runs, on the in-process fabric. It was measured
// once, on a 2-core x86 container, and is committed rather than calibrated at
// run time: every rank of a mesh resolves N from its own Config, and all of
// them must resolve the same N. EXPERIMENTS X14 has the fit.
//
//   - Ts, 4.5 µs, is what one composition message costs end to end: encode,
//     hand-off, wake-up, validation and decode-over. It is the slope of a
//     frame's CPU over its message count (engine 96³, P = 4, trle, nrt:1 to
//     nrt:14, served and in-process). The mailbox ping-pong alone is
//     0.4–0.75 µs, and planning with that picks N = 8–22 for the same frame.
//   - Tp, 0.07 ns a byte, is the in-process fabric's 1 MiB ping-pong.
//   - To, 1.2 ns a pixel, is the over kernel on rendered and sparse
//     partials.
var inProcessCost = model.Params{Ts: 4.5e-6, Tp: 0.07e-9, To: 1.2e-9}

// ResolveN fills in an automatic block count (N == 0) for the
// rotate-tiling kinds: the census predictor's choice for an image of apix
// pixels composited by p ranks on the in-process fabric (inProcessCost).
// Other kinds pass through. ResolveNWith plans for another machine.
func (m Method) ResolveN(p, apix int) (Method, error) {
	return m.ResolveNWith(p, apix, inProcessCost)
}

// ResolveNWith is ResolveN under a given machine's cost triple.
func (m Method) ResolveNWith(p, apix int, cost model.Params) (Method, error) {
	if !m.rotateTiling() || m.N != 0 {
		return m, nil
	}
	n, err := model.AutoN(p, apix, cost, 0, m.Kind == "2nrt")
	if err != nil {
		return Method{}, err
	}
	m.N = n
	return m, nil
}

// Schedule builds the method's composition schedule for p ranks.
func (m Method) Schedule(p int) (*schedule.Schedule, error) {
	switch m.Kind {
	case "bs":
		return schedule.BinarySwap(p)
	case "pp":
		return schedule.Pipeline(p)
	case "ds":
		return schedule.DirectSend(p)
	case "tree":
		return schedule.Tree(p)
	case "radixk":
		factors, err := schedule.DefaultFactors(p)
		if err != nil {
			return nil, err
		}
		return schedule.RadixK(p, factors)
	case "nrt":
		return schedule.NRT(p, m.N)
	case "2nrt":
		return schedule.TwoNRT(p, m.N)
	case "rt":
		return schedule.RT(p, m.N)
	}
	return nil, fmt.Errorf("core: unknown method kind %q", m.Kind)
}

// Config describes one parallel rendering job.
type Config struct {
	// Dataset is a phantom name ("engine", "head", "brain").
	Dataset string
	// VolumeN is the cubic phantom resolution (e.g. 128).
	VolumeN int
	// Camera is the orthographic view.
	Camera shearwarp.Camera
	// Width, Height are the final (warped) image dimensions.
	Width, Height int
	// P is the number of ranks.
	P int
	// Method selects the composition schedule.
	Method Method
	// Codec names the wire compression ("raw", "rle", "trle").
	Codec string
	// Accelerate skips transparent voxel runs, recomputing each slice's
	// opacity runs every frame: byte-identical output (exact for the built-in
	// transfer functions) and no state kept between frames.
	Accelerate bool
	// RLE renders from the run-length encoded classified volume, the
	// Lacroute acceleration structure: byte-identical output, fastest per
	// frame. Each principal axis is encoded the first time a camera looks
	// along it and then kept for the life of the scene — the Engine's, or a
	// RenderOrbit's; a one-shot call encodes the one axis its camera needs
	// and drops it. Takes precedence over Accelerate.
	RLE bool
	// Partition selects the data-partitioning scheme of the render stage:
	// "1d" (default, depth slabs — rank order is depth order) or "2d"
	// (image-space tiles with disjoint footprints).
	Partition string
	// RecvTimeout bounds every composition receive; zero waits forever.
	RecvTimeout time.Duration
	// OnMissing selects the degradation policy for missing contributions:
	// "fail" (default, abort with a typed error), "partial" (substitute
	// blank tiles and flag the result) or "recover" (replicate sub-images
	// to buddies, agree on failures and re-execute for a complete image;
	// requires a RecvTimeout).
	OnMissing string
	// MaxRecoveries bounds the "recover" policy's re-executions; zero means
	// the compositor default, negative forbids re-execution.
	MaxRecoveries int
	// RejoinTimeout, positive, enables the self-healing join path of the
	// "recover" policy: after a membership change the survivors wait this
	// long for a registered spare (SpareRank) to take over a dead slot via
	// merkle-verified state transfer before degrading. Must be identical on
	// every rank. Zero disables rejoin.
	RejoinTimeout time.Duration
	// ScrubReplicas runs the replica scrub exchange after the buddy
	// replica exchange: every holder re-hashes its ward replicas and
	// repairs silent corruption from the live copy. Must be identical on
	// every rank.
	ScrubReplicas bool
	// Pipeline switches composition from the bulk-synchronous step loop to
	// the message-driven per-tile pipeline: composition starts as soon as
	// the first tile's rows are rendered (1-D partition, plain renderer),
	// and completed tiles stream progressively to rank 0.
	Pipeline bool
	// PipelineWindow bounds the tiles one rank advances concurrently under
	// Pipeline; zero means the compositor default, negative is unbounded.
	PipelineWindow int
	// InterleaveSeed, non-zero, seeds the compositor inbox's deterministic
	// delivery reordering (the differential test harness's knob; it permutes
	// whichever executor runs).
	InterleaveSeed int64
	// OnPartialFrame, with Pipeline on, fires on rank 0 as each tile of the
	// intermediate image completes — progressive frame delivery.
	OnPartialFrame func(compositor.PartialFrame)
	// Grace gives each rank a peer-health tracker (gray.Health): under
	// OnMissing "recover" a peer that misses a deadline but keeps
	// delivering is waited out instead of evicted, until its misses are
	// sustained past the escalation bar. Other policies never consult it.
	Grace bool
	// Health, non-nil, is the peer-health tracker the compositor scores
	// gray-failure signals into; when nil and Grace is set, a per-rank
	// tracker is created internally. Supplying one lets the
	// caller feed transport-level signals (session frame replays) into the
	// same scores — only safe when this Config drives a single rank, since
	// health state must never be shared across ranks.
	Health *gray.Health
	// Telemetry records per-rank render/composite/warp spans and counters
	// for the frame. Nil (the default) disables recording.
	Telemetry *telemetry.Recorder
}

// compositeOptions resolves the fault-tolerance fields into compositor
// options rooted at rank 0. The rank matters under Grace: health scores
// are per-rank state, never shared.
func (cfg Config) compositeOptions(cdc codec.Codec, rank int) (compositor.Options, error) {
	policy, err := compositor.ParsePolicy(cfg.OnMissing)
	if err != nil {
		return compositor.Options{}, err
	}
	opts := compositor.Options{
		Codec:         cdc,
		GatherRoot:    0,
		RecvTimeout:   cfg.RecvTimeout,
		OnMissing:     policy,
		MaxRecoveries: cfg.MaxRecoveries,
		RejoinTimeout: cfg.RejoinTimeout,
		ScrubReplicas: cfg.ScrubReplicas,
		Telemetry:     cfg.Telemetry,
		Pipeline: compositor.PipelineConfig{
			Enabled:        cfg.Pipeline,
			Window:         cfg.PipelineWindow,
			InterleaveSeed: cfg.InterleaveSeed,
			OnPartial:      cfg.OnPartialFrame,
		},
	}
	if cfg.Health != nil {
		opts.Health = cfg.Health
	} else if cfg.Grace {
		opts.Health = gray.NewHealth(gray.HealthConfig{}, cfg.Telemetry, rank)
	}
	return opts, nil
}

// FrameReport is the outcome of a parallel frame.
type FrameReport struct {
	Image        *raster.Image // final warped image (on the root)
	Intermediate *raster.Image // composited intermediate image (root)
	RenderTime   time.Duration // slowest rank's render stage
	CompositeAll time.Duration // wall time of the composition stage
	WarpTime     time.Duration
	Reports      []*compositor.Report // per-rank composition reports

	rasters *rasterStore // where Release returns Image and Intermediate
}

// Release hands Image and Intermediate back to the engine that rendered
// them, for a later frame of the same size to render, gather or warp into,
// and sets both to nil: the caller must hold no other reference to either
// (an encoded PNG is a copy; a slice of Pix is not). Calling it is optional —
// an unreleased raster is garbage like any other — and it is a no-op on a nil
// report and after the first call.
func (r *FrameReport) Release() {
	if r == nil || r.rasters == nil {
		return
	}
	for _, im := range []*raster.Image{r.Image, r.Intermediate} {
		if im != nil {
			r.rasters.put(im)
		}
	}
	r.Image, r.Intermediate, r.rasters = nil, nil, nil
}

// The package-level entry points below are one-shot: each builds its scene,
// resolves its plan, renders one frame on a throwaway Engine and keeps
// nothing. A caller with more than one frame to render keeps an Engine.

// RenderParallel runs the pipeline on the in-process fabric: P goroutine
// ranks each render their 1-D slab, composite with the configured method,
// and rank 0 warps the gathered intermediate image.
func RenderParallel(cfg Config) (*FrameReport, error) {
	f, err := new(Engine).Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return f.Render()
}

// RenderParallelVolume is RenderParallel with an explicit volume and
// transfer function.
func RenderParallelVolume(cfg Config, vol *volume.Volume, tf *xfer.Func) (*FrameReport, error) {
	f, err := new(Engine).prepare(cfg, newScene(vol, tf))
	if err != nil {
		return nil, err
	}
	return f.Render()
}

// Phantom builds a phantom dataset at cubic resolution n, or says why it
// cannot: every tool that renders a phantom builds it here.
func Phantom(dataset string, n int) (*volume.Volume, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: phantom resolution %d, want at least 1", n)
	}
	if vol := volume.ByName(dataset, n); vol != nil {
		return vol, nil
	}
	return nil, fmt.Errorf("core: unknown dataset %q", dataset)
}

// RenderSerial renders the same frame without parallelism — the reference
// the parallel result must match (to quantisation).
func RenderSerial(cfg Config) (*raster.Image, error) {
	vol, err := Phantom(cfg.Dataset, cfg.VolumeN)
	if err != nil {
		return nil, err
	}
	r := &shearwarp.Renderer{Vol: vol, TF: xfer.ForDataset(cfg.Dataset)}
	return r.Render(cfg.Camera, cfg.Width, cfg.Height)
}

// RenderRank runs one rank of the pipeline over a caller-provided
// communicator — the building block of the multi-process TCP deployment
// (cmd/rtnode). It returns the final warped image on rank 0.
func RenderRank(c comm.Comm, cfg Config) (*raster.Image, *compositor.Report, error) {
	f, err := new(Engine).Prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	inter, rep, _, err := f.rank(c)
	if err != nil {
		return nil, nil, err
	}
	final, err := f.warp(c.Rank(), inter)
	if err != nil {
		return nil, nil, err
	}
	return final, rep, nil
}

// SpareRank runs one standby rank of the multi-process deployment: instead
// of rendering, it announces itself for the dead slot c.Rank(), restores its
// state from the mesh's merkle-verified transfer, and finishes the frame as
// a full member (cmd/rtnode -spare). Requires the "recover" policy with a
// positive RecvTimeout, and a positive RejoinTimeout bounding the wait for
// admission. Returns the final warped image when this slot is the gather
// root, like RenderRank.
func SpareRank(c comm.Comm, cfg Config) (*raster.Image, *compositor.Report, error) {
	f, err := new(Engine).Prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	copts, err := cfg.compositeOptions(f.codec, c.Rank())
	if err != nil {
		return nil, nil, err
	}
	inter, rep, err := compositor.RunSpare(c, f.sched, copts)
	if err != nil {
		return nil, rep, err
	}
	final, err := f.warp(c.Rank(), inter)
	if err != nil {
		return nil, nil, err
	}
	return final, rep, nil
}
