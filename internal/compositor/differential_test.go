package compositor

import (
	"fmt"
	"math/rand"
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// The differential suite checks the distributed compositors against the
// sequential reference: with binary alpha the over operator is exactly
// associative in uint8, so every schedule must produce a byte-identical
// image no matter how it reorders and splits the compositing work.

// differentialMethods are the paper's four composition methods under test,
// with each method's processor-count constraint.
func differentialMethods() []method {
	return []method{
		{"rt-n", func(p int) (*schedule.Schedule, error) { return schedule.NRT(p, 4) },
			func(p int) bool { return p%2 == 0 }},
		{"rt-2n", func(p int) (*schedule.Schedule, error) { return schedule.TwoNRT(p, 4) },
			func(int) bool { return true }},
		{"binary-swap", schedule.BinarySwap, schedule.IsPowerOfTwo},
		{"pipeline", schedule.Pipeline, func(int) bool { return true }},
	}
}

func TestDifferentialAgainstSequential(t *testing.T) {
	const w, h = 64, 48
	for _, p := range []int{2, 3, 4, 5, 8, 16} {
		for _, m := range differentialMethods() {
			if !m.okFor(p) {
				continue
			}
			for _, cdcName := range []string{"raw", "rle", "trle"} {
				t.Run(fmt.Sprintf("%s/p%d/%s", m.name, p, cdcName), func(t *testing.T) {
					cdc, err := codec.ByName(cdcName)
					if err != nil {
						t.Fatal(err)
					}
					sched, err := m.build(p)
					if err != nil {
						t.Fatal(err)
					}
					// A distinct seed per case so every (method, p, codec)
					// cell sees its own random sub-images.
					rng := rand.New(rand.NewSource(int64(p*1000 + len(m.name)*10 + len(cdcName))))
					layers := makeLayers(rng, p, w, h, true)
					want := compose.SerialComposite(layers)
					got := runInproc(t, sched, layers, cdc)
					if !raster.Equal(got, want) {
						t.Fatalf("%s p=%d codec=%s differs from sequential reference: maxdiff=%d",
							m.name, p, cdcName, raster.MaxDiff(got, want))
					}
				})
			}
		}
	}
}

func TestDifferentialSparseAndDenseLayers(t *testing.T) {
	// Degenerate alpha distributions stress the codecs' blank handling:
	// all-blank layers (the over identity everywhere) and all-opaque layers
	// (no compression opportunity) must still match the reference exactly.
	const w, h = 32, 32
	cdc := codec.TRLE{}
	for _, density := range []float64{0, 0.05, 0.95, 1} {
		for _, p := range []int{2, 4, 5} {
			t.Run(fmt.Sprintf("density%g/p%d", density, p), func(t *testing.T) {
				sched, err := schedule.TwoNRT(p, 4)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(p) + int64(density*100)))
				layers := make([]*raster.Image, p)
				for r := range layers {
					layers[r] = raster.RandomBinaryImage(rng, w, h, density)
				}
				want := compose.SerialComposite(layers)
				got := runInproc(t, sched, layers, cdc)
				if !raster.Equal(got, want) {
					t.Fatalf("density=%g p=%d: maxdiff=%d", density, p, raster.MaxDiff(got, want))
				}
			})
		}
	}
}

func TestDifferentialManySeeds(t *testing.T) {
	// A light property sweep: many random layer sets through one
	// representative schedule per method, all byte-identical to sequential.
	if testing.Short() {
		t.Skip("short mode")
	}
	const w, h, p = 40, 40, 4
	cdc := codec.TRLE{}
	for _, m := range differentialMethods() {
		sched, err := m.build(p)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			layers := makeLayers(rng, p, w, h, true)
			want := compose.SerialComposite(layers)
			got := runInproc(t, sched, layers, cdc)
			if !raster.Equal(got, want) {
				t.Fatalf("%s seed=%d: maxdiff=%d", m.name, seed, raster.MaxDiff(got, want))
			}
		}
	}
}
