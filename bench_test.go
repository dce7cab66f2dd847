// Package rtcomp_test holds the benchmark harness: one benchmark per paper
// table/figure, driving the same generators as cmd/rtbench at a reduced
// workload so -bench runs stay short. Real compositions are timed by the
// frame ledger in bench/, not here.
package rtcomp_test

import (
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/experiments"
	"rtcomp/internal/model"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/simnet"
)

func runSpec(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := experiments.QuickOptions()
	// Warm the partials cache outside the timed loop.
	if _, err := spec.Run(o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1Model(b *testing.B)     { runSpec(b, "table1") }
func BenchmarkFig1Walkthrough(b *testing.B) { runSpec(b, "fig1") }
func BenchmarkFig2Walkthrough(b *testing.B) { runSpec(b, "fig2") }
func BenchmarkFig3Templates(b *testing.B)   { runSpec(b, "fig3") }
func BenchmarkFig4Compression(b *testing.B) { runSpec(b, "fig4") }
func BenchmarkEq56OptimalN(b *testing.B)    { runSpec(b, "eq56") }
func BenchmarkFig5NSweep(b *testing.B)      { runSpec(b, "fig5") }
func BenchmarkFig6Methods(b *testing.B)     { runSpec(b, "fig6") }
func BenchmarkFig7TRLESweep(b *testing.B)   { runSpec(b, "fig7") }
func BenchmarkFig8MethodsCodecs(b *testing.B) {
	runSpec(b, "fig8")
}
func BenchmarkCompressionRatios(b *testing.B) { runSpec(b, "compress") }

// benchLayers builds a deterministic composition workload.
func benchLayers(p, w, h int) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(nil, w, h, r, p)
		layers[r].AddValueNoise(6, uint64(r))
	}
	return layers
}

// BenchmarkSimulate measures the virtual-time simulator itself.
func BenchmarkSimulate(b *testing.B) {
	layers := benchLayers(32, 512, 512)
	sched, err := schedule.RT(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	params := simnet.SP2Calibrated()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simnet.Simulate(sched, layers, codec.Raw{}, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleGeneration measures RT schedule construction, which the
// model predicts must stay negligible next to the composition itself.
func BenchmarkScheduleGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := schedule.RT(32, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalN measures the Equation (5) solver.
func BenchmarkOptimalN(b *testing.B) {
	m := model.PaperParams()
	for i := 0; i < b.N; i++ {
		model.OptimalN2NRT(32, 512*512, m)
	}
}
