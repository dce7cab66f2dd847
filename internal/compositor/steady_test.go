package compositor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// TestSteadyStateFrameBytes holds whole frames — the paper's halving
// schedules, eight ranks, gather included — to the memory rule of DESIGN §9:
// once the pool is warm, a frame takes nothing new from the allocator but
// its output image. Over a window of 20 frames the pool must serve every
// Get from a free list (no Misses) and find room for every Put (no Drops),
// and the heap must grow by no more than the image plus 64 KiB of small
// objects (fabric, stores, goroutines, reports) per frame.
//
// The pool's free lists grow to the most buffers a frame ever has out at
// once, and how many that is depends on how the ranks' goroutines happened
// to interleave, so the three warm-up frames do not always reach it. A
// window with a miss is therefore measured again, up to maxWindows times: a
// pool that is only still filling gets there, while a frame that loses
// buffers (the halves the old store fed back in place of their parent)
// misses in every window. A Drop fails at once.
//
// Under the brownout plan every message also costs the fault injector a
// goroutine closure and a sleep timer; that is not the frame's memory, and
// it gets its own allowance per message.
func TestSteadyStateFrameBytes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("byte-exact allocation measurement: not in -short mode, not under the race detector")
	}
	const p, edge, warmup, frames, maxWindows = 8, 256, 3, 20, 10
	const slack, perDelayedMsg = 64 << 10, 256
	imageBytes := edge * edge * raster.BytesPerPixel
	rng := rand.New(rand.NewSource(13))
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.PartialImage(rng, edge, edge, r, p)
	}
	brownout := faulty.Plan{Brownout: 200 * time.Microsecond}
	for _, m := range []struct {
		name  string
		build func(p, n int) (*schedule.Schedule, error)
	}{{"rt:4", schedule.RT}, {"2nrt:4", schedule.TwoNRT}} {
		sched, err := m.build(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
			for _, mode := range []struct {
				name      string
				pipelined bool
				plan      *faulty.Plan
			}{{"sync", false, nil}, {"pipelined", true, nil}, {"pipelined-brownout", true, &brownout}} {
				t.Run(fmt.Sprintf("%s/%s/%s", m.name, cdc.Name(), mode.name), func(t *testing.T) {
					opts := Options{Codec: cdc, GatherRoot: 0}
					opts.Pipeline.Enabled = mode.pipelined
					var msgs atomic.Int64
					frame := func() {
						err := inproc.Run(p, func(c comm.Comm) error {
							if mode.plan != nil {
								c = faulty.Wrap(c, *mode.plan)
							}
							img, rep, err := Run(c, sched, layers[c.Rank()], opts)
							if err != nil {
								return err
							}
							if c.Rank() == 0 && img == nil {
								return fmt.Errorf("gather root returned no image")
							}
							msgs.Add(rep.Comm.MsgsSent)
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
					}
					// A browned-out frame returns before its last delayed
					// deliveries have fired; let them hand their frames back.
					settle := func() {
						if mode.plan != nil {
							time.Sleep(4 * mode.plan.Brownout)
						}
					}
					for i := 0; i < warmup; i++ {
						frame()
					}
					settle()
					for window := 1; ; window++ {
						var m0, m1 runtime.MemStats
						msgs.Store(0)
						runtime.ReadMemStats(&m0)
						s0 := bufpool.Default.Stats()
						for i := 0; i < frames; i++ {
							frame()
						}
						settle()
						s1 := bufpool.Default.Stats()
						runtime.ReadMemStats(&m1)
						perFrame := int(m1.TotalAlloc-m0.TotalAlloc) / frames
						misses, drops := s1.Misses-s0.Misses, s1.Drops-s0.Drops
						t.Logf("window %d: %d B/frame (image %d), pool hits +%d, misses +%d, drops +%d",
							window, perFrame, imageBytes, s1.Hits-s0.Hits, misses, drops)
						if drops != 0 {
							t.Fatalf("pool dropped %d Puts over %d warm frames", drops, frames)
						}
						if misses != 0 {
							if window == maxWindows {
								t.Fatalf("pool missed %d Gets over %d frames, and some in each of %d windows", misses, frames, maxWindows)
							}
							continue
						}
						budget := imageBytes + slack
						if mode.plan != nil {
							budget += int(msgs.Load()) / frames * perDelayedMsg
						}
						if perFrame > budget {
							t.Fatalf("a warm frame allocates %d bytes, budget %d (its %d-byte image and small objects)", perFrame, budget, imageBytes)
						}
						return
					}
				})
			}
		}
	}
}
