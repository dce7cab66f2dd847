package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// TestSpareRankRejoins: rank 3 of a P = 4 recover-policy frame dies after
// its first block send, and SpareRank takes over the slot from the layer it
// renders itself. The survivors and the spare must all report
// Rejoined, and rank 0's warped image must be byte-identical to the
// fault-free frame's. Under Pipeline the members stream their partials
// (startPartials) while the spare renders whole slabs (Frame.partials).
func TestSpareRankRejoins(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			cfg := testConfig(4, "nrt:2")
			cfg.OnMissing = "recover"
			cfg.RecvTimeout = 2 * time.Second
			cfg.RejoinTimeout = 10 * time.Second
			cfg.Pipeline = pipeline
			ref, err := RenderParallel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const die = 3
			p := cfg.P
			f := inproc.New(p)
			defer f.Close()
			// Slot p holds the spare.
			reps := make([]*compositor.Report, p+1)
			errs := make([]error, p+1)
			var final *raster.Image
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					plan := faulty.Plan{Seed: 43}
					if r == die {
						plan.DieAfterSends = 1
					}
					ep := f.Endpoint(r)
					img, rep, err := RenderRank(faulty.Wrap(ep, plan), cfg)
					ep.Close()
					reps[r], errs[r] = rep, err
					if r == 0 {
						final = img
					}
					if r == die {
						// The spare speaks through the same framing layer.
						sep := f.Reattach(r)
						_, reps[p], errs[p] = SpareRank(faulty.Wrap(sep, faulty.Plan{Seed: 43}), cfg)
						sep.Close()
					}
				}(r)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("spare frame HUNG")
			}

			if !errors.Is(errs[die], faulty.ErrDead) {
				t.Errorf("rank %d error = %v, want ErrDead", die, errs[die])
			}
			for _, r := range []int{0, 1, 2, p} {
				if errs[r] != nil {
					t.Fatalf("slot %d (%d is the spare) failed: %v", r, p, errs[r])
				}
				if rep := reps[r]; !rep.Rejoined || rep.Degraded {
					t.Errorf("slot %d (%d is the spare) report %+v, want Rejoined and not Degraded", r, p, rep)
				}
			}
			if final == nil || !raster.Equal(final, ref.Image) {
				t.Fatal("rank 0's image after the rejoin differs from the fault-free frame")
			}
		})
	}
}

// TestPartialsAreDeterministic is the property a spare's byte-identity rests
// on: a rank's partial image is a function of the frame alone. For every
// rank, Frame.partials rendered on two goroutines from two Engines gives the
// same bytes, and so does the startPartials source of a pipelined frame once
// every tile is waited for.
func TestPartialsAreDeterministic(t *testing.T) {
	for _, p := range []int{3, 4} {
		for _, part := range []string{"1d", "2d"} {
			for _, renderer := range []string{"plain", "accelerate", "rle"} {
				t.Run(fmt.Sprintf("p=%d/%s/%s", p, part, renderer), func(t *testing.T) {
					t.Parallel()
					cfg := testConfig(p, "pp")
					cfg.Partition = part
					cfg.Accelerate = renderer == "accelerate"
					cfg.RLE = renderer == "rle"
					piped := cfg
					piped.Pipeline = true
					frames := make([]*Frame, 3)
					for i, c := range []Config{cfg, cfg, piped} {
						var err error
						if frames[i], err = new(Engine).Prepare(c); err != nil {
							t.Fatal(err)
						}
					}
					for r := 0; r < p; r++ {
						imgs := make([]*raster.Image, 3)
						errs := make([]error, 3)
						var wg sync.WaitGroup
						for i := range 2 {
							wg.Add(1)
							go func() {
								defer wg.Done()
								imgs[i], errs[i] = frames[i].partials(r)
							}()
						}
						wg.Wait()
						img, src, err := frames[2].startPartials(r)
						if err == nil && src != nil {
							for ti, span := range frames[2].sched.TileSpans(img.NPixels()) {
								if err = src.WaitTile(ti, span); err != nil {
									break
								}
							}
						}
						imgs[2], errs[2] = img, err
						for i, err := range errs {
							if err != nil {
								t.Fatalf("rank %d, render %d: %v", r, i, err)
							}
						}
						for i, what := range []string{"a second Engine's partials", "the startPartials source"} {
							if !bytes.Equal(imgs[i+1].Pix, imgs[0].Pix) {
								t.Errorf("rank %d: %s differs from the first Engine's partials", r, what)
							}
						}
					}
				})
			}
		}
	}
}
