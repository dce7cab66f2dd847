package compositor

import (
	"fmt"
	"testing"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/inproc"
)

// allocBudgetPerStep is the ceiling on steady-state heap allocations per
// block message, counted across BOTH ranks of a two-rank ping-pong (send
// encode+transport on one side, receive decode+merge on the other). The
// remaining allocations are slice headers the fragment store rebuilds per
// merge, not payload buffers — those all recycle through the pool.
const allocBudgetPerStep = 4

// pingPongSchedule bounces the tile between two ranks for the given number
// of steps: the steady-state composition step (take, encode, send /
// receive, decode, merge) with no gather, so the per-step allocation count
// isolates the hot path. With halvings > 0 both ranks first halve the tile
// that many times — what every schedule of the paper does — and each step
// then ships all 2^halvings blocks: views into the staging slab on the first
// step, decoded buffers the store owns through their fragments afterwards.
func pingPongSchedule(steps, halvings int) *schedule.Schedule {
	s := &schedule.Schedule{Name: "pingpong", P: 2, Tiles: 1}
	for i := 0; i < steps; i++ {
		from := i % 2
		step := schedule.Step{}
		if i == 0 {
			step.PreHalvings = halvings
		}
		for idx := 0; idx < 1<<halvings; idx++ {
			step.Transfers = append(step.Transfers, schedule.Transfer{
				From: from, To: 1 - from, Block: schedule.Block{Tile: 0, Level: halvings, Index: idx},
			})
		}
		s.Steps = append(s.Steps, step)
	}
	return s
}

// composeAllocs measures the total heap allocations of one full ping-pong
// composition of the given length (fabric setup and staging included).
func composeAllocs(t *testing.T, steps, halvings int, cdc codec.Codec, layers []*raster.Image) float64 {
	t.Helper()
	sched := pingPongSchedule(steps, halvings)
	opts := Options{Codec: cdc, GatherRoot: -1}
	return testing.AllocsPerRun(10, func() {
		err := inproc.Run(2, func(c comm.Comm) error {
			_, _, err := Run(c, sched, layers[c.Rank()], opts)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// stepAllocs is the marginal heap allocation count of one block message of
// the ping-pong: the per-run fixed costs (fabric, store, halvings, report,
// goroutines) cancel when a long run is compared against a short one.
func stepAllocs(t *testing.T, halvings int, cdc codec.Codec, layers []*raster.Image) float64 {
	t.Helper()
	const short, long = 4, 64
	base := composeAllocs(t, short, halvings, cdc, layers)
	full := composeAllocs(t, long, halvings, cdc, layers)
	perStep := (full - base) / float64(int(long-short)<<halvings)
	t.Logf("%s allocs, %d halvings: %d steps = %.0f, %d steps = %.0f, per block message = %.2f",
		cdc.Name(), halvings, short, base, long, full, perStep)
	return perStep
}

// TestSteadyStateComposeAllocs asserts the allocation-free steady state of
// the composition step loop on both wire forms. The dense ramp layers
// compress under no codec, so every step is the raw escape — trial encode,
// bail-out, pixels shipped as they are, OverU8 off the receive buffer. The
// sparse layers (a band of ramp in a blank image) compress under every
// codec, so every step keeps the codec's stream — the back-patched length
// prefix with its copy-down on the send side, the fused DecodeOver on the
// receive side. Either way a step must fit the budget and, for the fused
// codecs, allocate no more than the same step under codec.Raw.
func TestSteadyStateComposeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	const w, h = 64, 64
	ramp := func(lo, hi int) []*raster.Image {
		layers := make([]*raster.Image, 2)
		for r := range layers {
			layers[r] = raster.New(w, h)
			for i := lo; i < hi; i++ {
				layers[r].Pix[i] = uint8(1 + (i+7*r)%250)
			}
		}
		return layers
	}
	n := w * h * raster.BytesPerPixel
	for _, fam := range []struct {
		name    string
		layers  []*raster.Image
		escaped bool
	}{
		{"dense", ramp(0, n), true},
		{"sparse", ramp(n/2, n/2+n/16), false},
	} {
		// From the second step on, the block that bounces is the composite.
		bounced := compose.SerialComposite(fam.layers).Pix
		for _, halvings := range []int{0, 2} {
			rawStep := stepAllocs(t, halvings, codec.Raw{}, fam.layers)
			for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
				t.Run(fmt.Sprintf("%s/halved%d/%s", fam.name, halvings, cdc.Name()), func(t *testing.T) {
					// A block is the 1/2^halvings-th part of the image.
					part := len(bounced) >> halvings
					for _, pix := range [][]byte{fam.layers[0].Pix, bounced} {
						for at := 0; at < len(pix); at += part {
							escaped := len(codec.EncodeCapped(nil, pix[at:at+part], cdc)) == part
							if cdc.Name() != "raw" && escaped != fam.escaped {
								t.Fatalf("%s block at %d escaped = %v under %s", fam.name, at, escaped, cdc.Name())
							}
						}
					}
					perStep := stepAllocs(t, halvings, cdc, fam.layers)
					if perStep > allocBudgetPerStep {
						t.Fatalf("steady-state composition allocates %.2f objects per block message, budget %d",
							perStep, allocBudgetPerStep)
					}
					if perStep > rawStep+0.5 {
						t.Fatalf("a block message allocates %.2f objects, under the raw codec %.2f", perStep, rawStep)
					}
				})
			}
		}
	}
}

// TestFusedMergeAllocs covers what the ping-pong cannot: there the receiver
// has just given its block away, so from the second step on every incoming
// fragment is depth-isolated and materialized. Here the receiver keeps a
// resident layer, so a step's receive half is the fused DecodeOver — on
// either side of the resident layer, off an escaped or a compressed
// fragment — next to its send half, and both together must allocate no more
// under a codec than under codec.Raw.
func TestFusedMergeAllocs(t *testing.T) {
	const w, h = 64, 16
	sched := &schedule.Schedule{Name: "pair", P: 3, Tiles: 1}
	b := schedule.Block{Tile: 0}
	n := w * h * raster.BytesPerPixel
	for _, fam := range []struct {
		name    string
		lo, hi  int
		escaped bool
	}{{"dense", 0, n, true}, {"sparse", n / 2, n/2 + n/16, false}} {
		layer := raster.New(w, h)
		for i := fam.lo; i < fam.hi; i++ {
			layer.Pix[i] = uint8(1 + i%250)
		}
		for _, depth := range []int{0, 2} { // in front of, behind the resident rank 1
			in := []fragstore.Fragment{{Rng: schedule.RankRange{Lo: depth, Hi: depth + 1}, Data: layer.Pix}}
			measure := func(cdc codec.Codec) float64 {
				st := fragstore.New(1, sched, layer)
				msg := make([]byte, 0, messageBound(in))
				parsed := make([]fragstore.EncodedFragment, 0, 1)
				return testing.AllocsPerRun(20, func() {
					buf, raw, wire := EncodeFragmentsAppend(msg, in, cdc)
					if (wire == raw) != (fam.escaped || cdc.Name() == "raw") {
						t.Fatalf("%s fragment shipped %d bytes for %d raw under %s", fam.name, wire, raw, cdc.Name())
					}
					efs, err := parseEncodedFragments(parsed, buf)
					if err != nil {
						t.Fatal(err)
					}
					if over, err := st.MergeEncoded(b, efs, cdc); err != nil || over == 0 {
						t.Fatalf("merge composited %d pixels, err %v", over, err)
					}
					// Put the store back to holding rank 1 alone.
					held, _ := st.Take(b)
					held[0].Rng = schedule.RankRange{Lo: 1, Hi: 2}
					if _, err := st.Merge(b, held); err != nil {
						t.Fatal(err)
					}
				})
			}
			rawAllocs := measure(codec.Raw{})
			for _, cdc := range []codec.Codec{codec.RLE{}, codec.TRLE{}} {
				if got := measure(cdc); got > rawAllocs {
					t.Fatalf("%s/%s at depth %d: send+merge allocates %.0f objects, under raw %.0f",
						fam.name, cdc.Name(), depth, got, rawAllocs)
				}
			}
			t.Logf("%s at depth %d: send+merge allocates at most %.0f objects under every fused codec", fam.name, depth, rawAllocs)
		}
	}
}

// TestComposeScratchReuseAcrossSteps pins that the scratch-threaded step
// loop produces the same image as the per-step-allocating layout it
// replaced: a long ping-pong must leave the complete composite (all P
// layers, in depth order) on the final holder.
func TestComposeScratchReuseAcrossSteps(t *testing.T) {
	const w, h, steps = 16, 3, 7
	layers := make([]*raster.Image, 2)
	for r := range layers {
		layers[r] = raster.New(w, h)
		layers[r].Fill(uint8(40+100*r), uint8(90+60*r))
	}
	sched := pingPongSchedule(steps, 0)
	finals := make([]*raster.Image, 2)
	err := inproc.Run(2, func(c comm.Comm) error {
		img, rep, err := Run(c, sched, layers[c.Rank()], Options{GatherRoot: 0})
		if err != nil {
			return err
		}
		if rep.Degraded {
			return fmt.Errorf("rank %d: unexpected degradation", c.Rank())
		}
		finals[c.Rank()] = img
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := compose.SerialComposite(layers)
	if got := finals[0]; got == nil {
		t.Fatal("no final image on the gather root")
	} else {
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("pixel byte %d = %d, want %d", i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// bandedLayers builds deterministic pseudo-layers: banded alpha so the RLE
// and TRLE codecs see both blank and dense runs, different per rank so the
// composite is not degenerate.
func bandedLayers(p, w, h int) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		img := raster.New(w, h)
		for i := 0; i < len(img.Pix); i += raster.BytesPerPixel {
			px := i / raster.BytesPerPixel
			if (px/(w/4)+r)%3 == 0 {
				continue // transparent band
			}
			img.Pix[i] = uint8((px + 17*r) % 256)
			img.Pix[i+1] = uint8(128 + (px+r)%128)
		}
		layers[r] = img
	}
	return layers
}

// composeAllocCeilings bounds the heap allocations of one whole composition
// (fabric, stores, goroutines, gather and report included) per method, P and
// executor; the count does not depend on the codec. Under AllocsPerRun's
// single P the synchronous counts repeat exactly and the pipelined ones move
// by one or two with the order the tile goroutines run in, so a ceiling is
// the highest count seen (go1.24) plus P-1, or plus 2P-1 pipelined: one new
// allocation per rank per composition trips it.
var composeAllocCeilings = map[string]float64{
	"rt4/p4": 73, "bs/p4": 73, "pp/p4": 72,
	"rt4/p8": 152, "bs/p8": 152, "pp/p8": 161,
	"rt4/p4/pipe": 254, "bs/p4/pipe": 139, "pp/p4/pipe": 219,
	"rt4/p8/pipe": 573, "bs/p8/pipe": 311, "pp/p8/pipe": 649,
}

// TestComposeMatrixGates runs whole compositions, gather included, over
// every method x codec x P x executor cell and holds three things the frame
// ledger's four workloads do not: no cell ships more wire bytes than raw
// bytes (the raw escape's invariant), the buffer pool drops nothing over the
// whole matrix (a Put that finds its class full means a store fed the pool a
// buffer it never handed out), and no cell allocates more than its ceiling.
// The allocation third is skipped where the counts are not exact, like
// TestSteadyStateFrameBytes; its repeated compositions are also what fill a
// pool class far enough for a leaked Put to be dropped, so the drop gate
// bites only where they run.
func TestComposeMatrixGates(t *testing.T) {
	const edge = 128
	dropsBefore := bufpool.Default.Stats().Drops
	for _, p := range []int{4, 8} {
		layers := bandedLayers(p, edge, edge)
		for _, m := range []struct {
			name  string
			build func(p int) (*schedule.Schedule, error)
		}{
			{"rt4", func(p int) (*schedule.Schedule, error) { return schedule.RT(p, 4) }},
			{"bs", schedule.BinarySwap},
			{"pp", schedule.Pipeline},
		} {
			sched, err := m.build(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, pipelined := range []bool{false, true} {
				cell := fmt.Sprintf("%s/p%d", m.name, p)
				if pipelined {
					cell += "/pipe"
				}
				for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
					t.Run(cell+"/"+cdc.Name(), func(t *testing.T) {
						opts := Options{Codec: cdc, GatherRoot: 0}
						opts.Pipeline.Enabled = pipelined
						out := runInprocPipe(t, sched, layers, opts)
						out.mustFinal(t)
						var raw, wire int64
						for _, rep := range out.reports {
							raw += rep.RawBytes
							wire += rep.WireBytes
						}
						if wire > raw {
							t.Fatalf("shipped %d wire bytes for %d raw", wire, raw)
						}
						if testing.Short() || raceEnabled {
							return
						}
						allocs := testing.AllocsPerRun(10, func() {
							err := inproc.Run(p, func(c comm.Comm) error {
								_, _, err := Run(c, sched, layers[c.Rank()], opts)
								return err
							})
							if err != nil {
								t.Fatal(err)
							}
						})
						if ceiling := composeAllocCeilings[cell]; allocs > ceiling {
							t.Fatalf("a composition allocates %.0f objects, ceiling %.0f", allocs, ceiling)
						}
					})
				}
			}
		}
	}
	if drops := bufpool.Default.Stats().Drops - dropsBefore; drops > 0 {
		t.Fatalf("the buffer pool dropped %d buffers over the matrix", drops)
	}
}
