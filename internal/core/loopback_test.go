package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/raster"
	"rtcomp/internal/transport/tcpnet"
)

// Healthy Recover frames over a loopback TCP mesh never recover: a rank that
// finishes first stays reachable until every rank has returned (tcpnet.Run),
// so no peer still settling the frame reads its departure as a death. Each
// frame is one mesh, as in rtnode -local.
func TestRenderRankRecoverOnLoopback(t *testing.T) {
	const frames = 100
	cams := meshCameras()
	for _, p := range []int{4, 8} {
		cfg := testConfig(p, "nrt:4")
		cfg.Width, cfg.Height = 128, 128
		cfg.OnMissing, cfg.RecvTimeout = "recover", 2*time.Second
		want := make([]*raster.Image, len(cams))
		for i, cam := range cams {
			c := cfg
			c.Camera = cam
			rep, err := RenderParallel(c)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = rep.Image
		}
		recovered := 0
		for i := 0; i < frames; i++ {
			c := cfg
			c.Camera = cams[i%len(cams)]
			var mu sync.Mutex
			var img *raster.Image
			epochs := 0
			err := tcpnet.Run(p, tcpnet.Config{DialTimeout: 10 * time.Second}, func(ep *tcpnet.Endpoint) error {
				im, rep, err := RenderRank(ep, c)
				if err != nil {
					return fmt.Errorf("rank %d: %w", ep.Rank(), err)
				}
				mu.Lock()
				defer mu.Unlock()
				epochs += rep.RecoveryEpochs
				if im != nil {
					img = im
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d frame %d: %v", p, i, err)
			}
			if epochs > 0 {
				recovered++
			}
			if img == nil || !raster.Equal(img, want[i%len(cams)]) {
				t.Fatalf("p=%d frame %d: rank 0's image differs from RenderParallel's", p, i)
			}
		}
		if recovered != 0 {
			t.Errorf("p=%d: %d of %d healthy frames re-executed a recovery epoch, want 0", p, recovered, frames)
		}
	}
}
