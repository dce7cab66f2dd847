// Package rtcomp is the public facade of the rotate-tiling image
// composition library: parallel image composition for sort-last volume
// rendering on distributed-memory machines, after Lin, Yang and Chung
// (IPPS 2001), plus the full rendering pipeline around it.
//
// The implementation lives in internal packages; this package re-exports
// the surface a downstream user needs:
//
//   - composition schedules (BinarySwap, Pipeline, DirectSend, Tree,
//     RadixK and the paper's rotate-tiling variants NRT / TwoNRT), all
//     validated by construction;
//   - the compositor, which executes any schedule over a communicator on
//     real images, with optional wire compression (RLE, TRLE);
//   - two communicator fabrics: in-process goroutines and raw TCP sockets;
//   - the full pipeline: phantom (or file-loaded) volumes, shear-warp
//     rendering, composition, final warp;
//   - the paper's analytic cost model and optimal-N machinery, and the
//     deterministic virtual-time simulator behind the reproduced figures.
//
// The quickest entry points:
//
//	// Composite partial images across 8 goroutine ranks:
//	sched, _ := rtcomp.NRT(8, 4)
//	err := rtcomp.RunInProcess(8, func(c rtcomp.Comm) error {
//	    img, _, err := rtcomp.Composite(c, sched, layers[c.Rank()],
//	        rtcomp.CompositeOptions{Codec: rtcomp.TRLE{}, GatherRoot: 0})
//	    ...
//	})
//
//	// Or run the whole rendering pipeline:
//	rep, err := rtcomp.RenderParallel(rtcomp.PipelineConfig{
//	    Dataset: "head", VolumeN: 128, Width: 512, Height: 512,
//	    P: 8, Method: rtcomp.Method{Kind: "nrt", N: 4}, Codec: "trle",
//	})
package rtcomp

import (
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/core"
	"rtcomp/internal/model"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/simnet"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// Image is a value+alpha raster image (two bytes per pixel).
type Image = raster.Image

// NewImage allocates a blank image.
func NewImage(w, h int) *Image { return raster.New(w, h) }

// Schedule is a composition plan: who sends which block to whom at every
// step. Build one with the method constructors below and execute it with
// Composite or Simulate.
type Schedule = schedule.Schedule

// Composition method constructors.
var (
	// BinarySwap is the method of Ma et al.; P must be a power of two.
	BinarySwap = schedule.BinarySwap
	// Pipeline is Lee's parallel-pipelined ring; any P, P-1 steps.
	Pipeline = schedule.Pipeline
	// DirectSend ships every block straight to its final owner.
	DirectSend = schedule.DirectSend
	// Tree is the naive binary-tree composition baseline.
	Tree = schedule.Tree
	// NRT is the paper's N_RT rotate-tiling variant (even P, any N).
	NRT = schedule.NRT
	// TwoNRT is the paper's 2N_RT variant (any P, even N).
	TwoNRT = schedule.TwoNRT
	// RT is rotate-tiling without the paper's parity restrictions.
	RT = schedule.RT
	// RadixK is the radix-k generalisation (power-of-two factors).
	RadixK = schedule.RadixK
	// ValidateSchedule proves a schedule composites correctly and returns
	// its traffic census.
	ValidateSchedule = schedule.Validate
)

// Comm is a rank's endpoint into a P-way communicator.
type Comm = comm.Comm

// RunInProcess executes fn on P goroutine ranks over the in-process
// fabric.
var RunInProcess = inproc.Run

// TCPConfig configures one rank of a TCP mesh communicator.
type TCPConfig = tcpnet.Config

// StartTCP brings up one rank of a socket-mesh communicator.
var StartTCP = tcpnet.Start

// CompositeOptions configures a composition run.
type CompositeOptions = compositor.Options

// CompositeReport summarises one rank's composition work.
type CompositeReport = compositor.Report

// Per-tile pipelined composition (CompositeOptions.Pipeline).
type (
	// TilePipeline enables and tunes the asynchronous per-tile pipelined
	// executor: bounded in-flight window, deterministic receive
	// interleaving, an optional streaming render Source and progressive
	// tile delivery at the gather root.
	TilePipeline = compositor.PipelineConfig
	// PartialFrame is one finished tile streamed to the gather root's
	// OnPartial callback while later tiles are still in flight.
	PartialFrame = compositor.PartialFrame
	// TileSource gates each tile's pipeline on a render in progress.
	TileSource = compositor.Source
)

// Composite executes a schedule for this rank's partial image over the
// communicator; the gather root receives the final image.
var Composite = compositor.Run

// Wire codecs.
type (
	// Codec compresses block payloads on the wire: Raw, RLE or TRLE, the
	// paper's three wire forms. A block the codec cannot shrink ships as its
	// raw pixels instead, so no codec ever makes a message larger than its
	// pixels.
	Codec = codec.Codec
	// Raw is the identity codec.
	Raw = codec.Raw
	// RLE is classic run-length encoding.
	RLE = codec.RLE
	// TRLE is the paper's template run-length encoding.
	TRLE = codec.TRLE
)

// Pipeline facade.
type (
	// PipelineConfig describes a parallel rendering job.
	PipelineConfig = core.Config
	// Method selects a composition method by kind and block count.
	Method = core.Method
	// FrameReport is the outcome of a parallel frame.
	FrameReport = core.FrameReport
	// Camera is an orthographic view (yaw and pitch in radians).
	Camera = shearwarp.Camera
	// Volume is a dense uint8 scalar field.
	Volume = volume.Volume
	// TransferFunc classifies scalars into gray value and opacity.
	TransferFunc = xfer.Func
)

// Pipeline entry points.
var (
	// ParseMethod parses "bs", "pp", "nrt:3", ... into a Method.
	ParseMethod = core.ParseMethod
	// RenderParallel runs the full pipeline on goroutine ranks.
	RenderParallel = core.RenderParallel
	// RenderParallelVolume is RenderParallel with an explicit volume.
	RenderParallelVolume = core.RenderParallelVolume
	// RenderSerial renders the reference image without parallelism.
	RenderSerial = core.RenderSerial
	// RenderRank runs one rank over a caller-provided communicator.
	RenderRank = core.RenderRank
	// PhantomVolume builds one of the procedural datasets
	// ("engine", "head", "brain").
	PhantomVolume = volume.ByName
	// LoadVolume reads an .rtvol container.
	LoadVolume = volume.Load
	// LoadRawVolume reads a headerless 8-bit raw volume.
	LoadRawVolume = volume.LoadRaw
	// TransferForDataset returns the preset classification of a phantom.
	TransferForDataset = xfer.ForDataset
)

// Analysis: the paper's cost model and the virtual-time simulator.
type (
	// ModelParams are the paper's Ts/Tp/To machine constants.
	ModelParams = model.Params
	// SimParams is the virtual-time simulator's machine model.
	SimParams = simnet.Params
	// SimResult is a simulated composition outcome.
	SimResult = simnet.Result
)

// Analysis entry points.
var (
	// PaperParams returns the paper's Section 2.3 example constants.
	PaperParams = model.PaperParams
	// OptimalN2NRT solves the paper's Equation (5) for the best block count.
	OptimalN2NRT = model.OptimalN2NRT
	// OptimalNNRT solves the paper's Equation (6).
	OptimalNNRT = model.OptimalNNRT
	// Simulate runs a schedule under the virtual-time machine model.
	Simulate = simnet.Simulate
	// SP2Calibrated returns SP2-magnitude simulator constants.
	SP2Calibrated = simnet.SP2Calibrated
)
