package compositor

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// The OnPartial handoff suite: the progressive-frame callback runs on a
// dedicated pump goroutine behind a buffer of one slot per tile, so a slow
// consumer can never stall the receiver loop.

// TestPartialBlockDeliversAll runs a slow-but-live consumer: every tile
// must be delivered exactly once, in completion order, with monotonically
// increasing Done counts — and all of it before Run returns on the root.
func TestPartialBlockDeliversAll(t *testing.T) {
	const p, w, h = 4, 27, 9
	cdc, err := codec.ByName("trle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.NRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8606))
	layers := makeLayers(rng, p, w, h, false)
	want := runInproc(t, sched, layers, cdc)

	var mu sync.Mutex
	var frames []PartialFrame
	opts := Options{
		Codec:       cdc,
		GatherRoot:  0,
		RecvTimeout: 10 * time.Second,
		Pipeline: PipelineConfig{
			Enabled: true,
			OnPartial: func(f PartialFrame) {
				time.Sleep(2 * time.Millisecond) // slow consumer, buffer must absorb
				mu.Lock()
				frames = append(frames, f)
				mu.Unlock()
			},
		},
	}
	got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
	if !raster.Equal(got, want) {
		t.Fatalf("partial-block image differs from oracle: maxdiff=%d", raster.MaxDiff(got, want))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != sched.Tiles {
		t.Fatalf("got %d partial frames, want %d (one per tile)", len(frames), sched.Tiles)
	}
	seen := map[int]bool{}
	for i, f := range frames {
		if seen[f.Tile] {
			t.Fatalf("tile %d delivered twice", f.Tile)
		}
		seen[f.Tile] = true
		if f.Done != i+1 || f.Total != sched.Tiles {
			t.Fatalf("frame %d: Done=%d Total=%d, want Done=%d Total=%d", i, f.Done, f.Total, i+1, sched.Tiles)
		}
		// The frame's pixels must match the final image's span: the pump
		// copies, so later merges cannot have scribbled on them.
		span := f.Span
		if wantPix := got.SpanBytes(span); !bytesEq(f.Pix, wantPix) {
			t.Fatalf("frame %d (tile %d): partial pixels differ from final image span", i, f.Tile)
		}
	}
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPartialPumpNilSafety exercises the nil-receiver paths directly.
func TestPartialPumpNilSafety(t *testing.T) {
	var pp *partialPump
	pp.publish(0, raster.Span{}, nil, 1, 1) // must not panic
	pp.finish()                             // must not panic
	if pp := newPartialPump(nil, 4); pp != nil {
		t.Fatal("pump constructed without an OnPartial callback")
	}
}
