// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 cost model, the Figure 1/2 schedule walkthroughs,
// the Figure 3/4 TRLE examples, the Equation (5)/(6) optimal-N bounds, and
// the Figure 5-8 composition-time series (theoretical model plus simulated
// experiment on rendered phantom partials). Each experiment is a Spec in
// the Registry; cmd/rtbench and the repository benchmarks drive them.
package experiments

import (
	"sync"

	"rtcomp/internal/core"
	"rtcomp/internal/model"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/simnet"
	"rtcomp/internal/stats"
	"rtcomp/internal/xfer"
)

// Options parameterises an experiment run.
type Options struct {
	// Dataset is the phantom to render partial images from.
	Dataset string
	// P is the processor count of the headline experiments.
	P int
	// VolumeN is the cubic phantom resolution.
	VolumeN int
	// Width, Height are the composite image dimensions (the paper's A).
	Width, Height int
	// MaxN bounds the initial-block sweeps.
	MaxN int
	// Camera is the rendering view.
	Camera shearwarp.Camera
	// Sim is the virtual-time machine model for the "experimental" series.
	Sim simnet.Params
	// Model is the parameter set for the paper's theoretical formulas.
	Model model.Params
	// Quick shrinks the workload for tests.
	Quick bool
}

// DefaultOptions returns the paper-scale configuration: the engine dataset
// rendered by 32 processors into a 512x512 composite.
func DefaultOptions() Options {
	return Options{
		Dataset: "engine",
		P:       32,
		VolumeN: 128,
		Width:   512,
		Height:  512,
		MaxN:    16,
		Camera:  shearwarp.Camera{Yaw: 0.35, Pitch: 0.2},
		Sim:     simnet.SP2Calibrated(),
		Model:   model.PaperParams(),
	}
}

// QuickOptions returns a scaled-down configuration for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.P = 8
	o.VolumeN = 48
	o.Width, o.Height = 128, 128
	o.MaxN = 8
	o.Quick = true
	return o
}

// Apix returns the composite image size in pixels.
func (o Options) Apix() int { return o.Width * o.Height }

// Spec describes one runnable experiment.
type Spec struct {
	// ID is the experiment key used on the command line.
	ID string
	// Title is the human-readable name.
	Title string
	// Paper cites the paper artifact the experiment regenerates.
	Paper string
	// Run produces the experiment's tables.
	Run func(Options) ([]*stats.Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Spec {
	return []Spec{
		{"table1", "Theoretical cost model of the four methods", "Table 1", runTable1},
		{"fig1", "2N_RT schedule walkthrough (P=3, N=4)", "Figure 1", runFig1},
		{"fig2", "N_RT schedule walkthrough (P=4, N=3)", "Figure 2", runFig2},
		{"fig3", "The 16 TRLE templates", "Figure 3", runFig3},
		{"fig4", "RLE vs TRLE compression example (18:5)", "Figure 4", runFig4},
		{"eq56", "Optimal initial block count bounds", "Equations (5) and (6)", runEq56},
		{"fig5", "Composition time vs initial blocks (N_RT, 2N_RT)", "Figure 5", runFig5},
		{"fig6", "BS vs PP vs 2N_RT vs N_RT composition time", "Figure 6", runFig6},
		{"fig7", "RT with and without TRLE vs initial blocks", "Figure 7", runFig7},
		{"fig8", "All methods with raw, RLE and TRLE", "Figure 8", runFig8},
		{"compress", "Partial-image compression ratios per dataset", "Section 4.2 context", runCompress},
		{"ablate", "RT design-ingredient ablation", "DESIGN.md reconstruction", runAblate},
		{"predict", "Census predictor vs simulator", "theory-vs-experiment check", runPredict},
		{"timeline", "Per-step completion times", "step-progression analysis", runTimeline},
		{"radix", "RT vs radix-k extension comparison", "extension baseline", runRadix},
		{"gantt", "Engine-occupancy Gantt charts", "overlap visualisation", runGantt},
		{"sweep", "RT-vs-BS robustness across datasets and views", "Section 4.1 'similar results'", runSweep},
		{"scaling", "Wall-clock pipeline speedup vs P", "end-to-end scaling", runScaling},
		{"contention", "One-port and straggler sensitivity", "machine-model stress", runContention},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Spec, bool) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// partialsCache memoises rendered partial-image sets per configuration.
var partialsCache sync.Map

type partialsKey struct {
	dataset       string
	p, volN, w, h int
	yaw, pitch    float64
}

// Partials renders the per-rank partial images of the dataset: the volume
// is cut into P depth slabs, each rendered to a partial intermediate image,
// then upscaled (nearest-neighbour, which commutes with compositing) to the
// composite size the paper uses.
func Partials(o Options, p int) ([]*raster.Image, error) {
	key := partialsKey{o.Dataset, p, o.VolumeN, o.Width, o.Height, o.Camera.Yaw, o.Camera.Pitch}
	if v, ok := partialsCache.Load(key); ok {
		return v.([]*raster.Image), nil
	}
	vol, err := core.Phantom(o.Dataset, o.VolumeN)
	if err != nil {
		return nil, err
	}
	r := &shearwarp.Renderer{Vol: vol, TF: xfer.ForDataset(o.Dataset)}
	view, err := r.Factor(o.Camera)
	if err != nil {
		return nil, err
	}
	slabs, err := partition.Slabs1D(view.NK(), p)
	if err != nil {
		return nil, err
	}
	layers := make([]*raster.Image, p)
	for rank, s := range slabs {
		partial, err := r.RenderSlab(view, s.Lo, s.Hi)
		if err != nil {
			return nil, err
		}
		layers[rank] = partial.UpscaleNearest(o.Width, o.Height)
		// Real scans carry per-pixel acquisition noise; the flat phantoms
		// (and the nearest-neighbour upscale) do not, which would let plain
		// RLE exploit identical-value runs that real gray images lack.
		layers[rank].AddValueNoise(6, uint64(rank)+0xC0FFEE)
	}
	partialsCache.Store(key, layers)
	return layers, nil
}
