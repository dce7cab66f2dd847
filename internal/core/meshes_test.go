package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/transport/inproc"
)

// idleMeshes copies the store's idle p-rank fabrics, the most recently
// returned last.
func (s *meshStore) idleMeshes(p int) []*inproc.Fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.idle[p])
}

// meshCameras is a six-position orbit whose frames the mesh tests compare.
func meshCameras() []shearwarp.Camera {
	cams := make([]shearwarp.Camera, 6)
	for i := range cams {
		cams[i] = shearwarp.Camera{Yaw: 2 * math.Pi * float64(i) / 6, Pitch: 0.2}
	}
	return cams
}

// freshFrames renders cfg at every camera, each on an engine of its own.
func freshFrames(t *testing.T, cfg Config, cams []shearwarp.Camera) []*FrameReport {
	t.Helper()
	want := make([]*FrameReport, len(cams))
	for i, cam := range cams {
		cfg.Camera = cam
		rep, err := engineFrame(new(Engine), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	return want
}

// sameFrame says how a frame differs from want, or returns nil.
func sameFrame(got, want *FrameReport) error {
	if !raster.Equal(got.Intermediate, want.Intermediate) || !raster.Equal(got.Image, want.Image) {
		return fmt.Errorf("differs from the fresh engine's frame (maxdiff %d)", raster.MaxDiff(got.Image, want.Image))
	}
	return nil
}

// checkDropped fails unless a failed frame, run when the store held before,
// left the store without its fabric: the fabric it took (the top of before,
// when there was one) is gone and no other appeared.
func checkDropped(t *testing.T, eng *Engine, p int, before []*inproc.Fabric, what string) {
	t.Helper()
	after := eng.meshes.idleMeshes(p)
	if n := len(before); n > 0 && slices.Contains(after, before[n-1]) {
		t.Fatalf("p=%d %s: the fabric the failed frame ran on went back to the store", p, what)
	}
	for _, f := range after {
		if !slices.Contains(before, f) {
			t.Fatalf("p=%d %s: a fabric the store did not hold before the failed frame is in it now", p, what)
		}
	}
}

// One engine's kept meshes stay clean across failures: failing frames — a
// rank error on every rank, a RenderCtx deadline expiring mid-frame, one rank
// failing mid-exchange, a healthy run that leaves a message behind — are
// interleaved with healthy frames at P = 4 and 8. No failed frame's fabric
// goes back to the store, every healthy frame is byte-identical to the same
// camera on a fresh engine, and the store never holds more than meshSlots
// fabrics per P, also after bursts of concurrent frames. Run under -race as
// well.
func TestEngineKeptMeshStaysClean(t *testing.T) {
	cams := meshCameras()
	for _, p := range []int{4, 8} {
		cfg := testConfig(p, "nrt:auto")
		want := freshFrames(t, cfg, cams)
		var eng Engine
		healthy := func(i int) error {
			c := cfg
			c.Camera = cams[i%len(cams)]
			rep, err := engineFrame(&eng, c)
			if err != nil {
				return fmt.Errorf("healthy frame %d: %w", i, err)
			}
			if err := sameFrame(rep, want[i%len(cams)]); err != nil {
				return fmt.Errorf("healthy frame %d: %w", i, err)
			}
			rep.Release()
			return nil
		}
		bounded := func(when string) {
			if n := len(eng.meshes.idleMeshes(p)); n > meshSlots {
				t.Fatalf("p=%d %s: the store holds %d idle fabrics, want at most %d", p, when, n, meshSlots)
			}
		}
		expired := 0
		for i := 0; i < 40; i++ {
			if err := healthy(i); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			bounded("after a healthy frame")
			before := eng.meshes.idleMeshes(p)
			switch i % 4 {
			case 0: // every rank fails before it composites
				bad := cfg
				bad.Partition = "bogus"
				if _, err := engineFrame(&eng, bad); err == nil {
					t.Fatalf("p=%d: a frame with an unknown partition scheme succeeded", p)
				}
				checkDropped(t, &eng, p, before, "rank error")
			case 1: // the request deadline expires mid-frame
				f, err := eng.Prepare(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+i*10)*time.Microsecond)
				_, err = f.RenderCtx(ctx)
				cancel()
				eng.meshes.running.Wait() // the abandoned ranks settle
				switch {
				case err == nil:
				case strings.Contains(err.Error(), "before the render began"),
					strings.Contains(err.Error(), "outlived its deadline"):
					// No rank failed: the frame took no fabric, or its ranks
					// finished cleanly while the caller still waited.
				default:
					expired++
					checkDropped(t, &eng, p, before, fmt.Sprintf("deadline (%v)", err))
				}
			case 2: // one rank fails mid-exchange
				err := eng.meshes.run(p, nil, func(c comm.Comm) error {
					if c.Rank() == 1 {
						if err := c.Send(0, 7, []byte("never read")); err != nil {
							return err
						}
						return errors.New("rank 1 fails")
					}
					return nil
				})
				if err == nil {
					t.Fatalf("p=%d: the failing rank's error was lost", p)
				}
				checkDropped(t, &eng, p, before, "mid-exchange rank error")
			case 3: // every rank returns nil, but a message is left unread
				err := eng.meshes.run(p, nil, func(c comm.Comm) error {
					if c.Rank() == p-1 {
						return c.Send(0, 9, []byte("left over"))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				checkDropped(t, &eng, p, before, "leftover message")
			}
			bounded("after a failed frame")
			if i%10 == 9 {
				// A burst of concurrent frames returns more fabrics than
				// the store keeps.
				var wg sync.WaitGroup
				errs := make([]error, 2*meshSlots)
				for g := range errs {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						errs[g] = healthy(i + g)
					}(g)
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				bounded("after a burst")
			}
		}
		if expired == 0 {
			t.Fatalf("p=%d: no deadline expired mid-frame: the test failed no frame by its deadline", p)
		}
		if len(eng.meshes.idleMeshes(p)) == 0 {
			t.Fatalf("p=%d: the store kept no fabric", p)
		}
		t.Logf("p=%d: %d of 10 deadline frames failed mid-frame", p, expired)
	}
}

// Healthy frames under the recover policy on one engine — the steps, the
// agreement and the commit all on kept meshes — never recover anything: 200
// frames at P = 4 and at P = 8, every one byte-identical to the same camera
// on a fresh engine, with zero recovery epochs on every rank. No rank closes
// its mailbox on return on a kept mesh, so a rank finishing early cannot look
// dead to a peer still sending to it (ROADMAP item 7). Run under -race as
// well.
func TestEngineRecoverOnKeptMesh(t *testing.T) {
	cams := meshCameras()
	const frames = 200
	for _, p := range []int{4, 8} {
		cfg := testConfig(p, "nrt:auto")
		cfg.OnMissing, cfg.RecvTimeout = "recover", 5*time.Second
		want := freshFrames(t, cfg, cams)
		var eng Engine
		epochs := 0
		for i := 0; i < frames; i++ {
			c := cfg
			c.Camera = cams[i%len(cams)]
			rep, err := engineFrame(&eng, c)
			if err != nil {
				t.Fatalf("p=%d frame %d: %v", p, i, err)
			}
			for _, r := range rep.Reports {
				epochs += r.RecoveryEpochs
			}
			if err := sameFrame(rep, want[i%len(cams)]); err != nil {
				t.Fatalf("p=%d frame %d: %v", p, i, err)
			}
			rep.Release()
		}
		if epochs != 0 {
			t.Errorf("p=%d: %d recovery epochs over %d healthy frames, want 0", p, epochs, frames)
		}
		if len(eng.meshes.idleMeshes(p)) == 0 {
			t.Errorf("p=%d: no recover frame left its mesh to the store", p)
		}
	}
}
