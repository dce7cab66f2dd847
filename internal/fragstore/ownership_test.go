package fragstore

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// drainPool empties every class of the process-wide pool that serves
// requests of up to max bytes and returns what they held, each buffer at its
// full capacity. A Get that the Misses counter charges found its class empty.
func drainPool(max int) [][]byte {
	var out [][]byte
	for size := 64; size < 2*max; size <<= 1 {
		for {
			misses := bufpool.Default.Stats().Misses
			b := bufpool.Get(size)
			if bufpool.Default.Stats().Misses != misses {
				break
			}
			out = append(out, b[:cap(b)])
		}
	}
	return out
}

// aliased returns two of the buffers that share bytes, if any do.
func aliased(bufs [][]byte) (a, b []byte, found bool) {
	addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(&b[0])) }
	sort.Slice(bufs, func(i, j int) bool { return addr(bufs[i]) < addr(bufs[j]) })
	for i := 1; i < len(bufs); i++ {
		if addr(bufs[i-1])+uintptr(len(bufs[i-1])) > addr(bufs[i]) {
			return bufs[i-1], bufs[i], true
		}
	}
	return nil, nil, false
}

// TestOwnershipProperty drives a store through random sequences of the
// operations an executor performs — halve, merge decoded and encoded
// fragments, take and release (a send), take and merge back, stage a rebuilt
// layer, coalesce — then releases it and inspects the pool, which was empty
// when the sequence began. What the pool holds afterwards must be exactly
// the buffers it handed out, each once and whole:
//
//   - no two of its buffers share bytes — which a fragment view (half of a
//     slab) that Put had accepted next to its slab would;
//   - it holds as many buffers as it allocated during the sequence — a view
//     accepted would make it more, a parent buffer lost to its halves fewer;
//   - a second Release adds nothing.
func TestOwnershipProperty(t *testing.T) {
	const p, maxLevel = 6, 3
	codecs := []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Half the seeds use an image whose halves are size classes of the
		// pool — a view of one that reached Put would be accepted — and half
		// one whose blocks are not, so that halves come out uneven.
		w, h := 37, 5
		if seed%2 == 0 {
			w, h = 32, 8
		}
		maxBytes := w * h * raster.BytesPerPixel
		tiles := 1 + rng.Intn(3)
		sched := &schedule.Schedule{Name: "property", P: p, Tiles: tiles}
		me := rng.Intn(p)
		layer := func() *raster.Image { return raster.RandomImage(rng, w, h, 0.5) }

		drainPool(maxBytes)
		start := bufpool.Default.Stats()
		st := New(me, sched, layer())

		// present[b][r]: rank r's layer is part of block b's holdings; a block
		// that was sent away stays in the model, empty, so that it can come
		// back as a depth-isolated insert.
		present := map[schedule.Block]*[p]bool{}
		for tl := 0; tl < tiles; tl++ {
			have := &[p]bool{}
			have[me] = true
			present[schedule.Block{Tile: tl}] = have
		}
		level := 0
		// pick draws a block of the model; sorted first, so that a seed
		// replays the same sequence whatever the map's iteration order.
		pick := func() (schedule.Block, *[p]bool) {
			blocks := make([]schedule.Block, 0, len(present))
			for b := range present {
				blocks = append(blocks, b)
			}
			sort.Slice(blocks, func(i, j int) bool { // all of one level
				return blocks[i].Tile < blocks[j].Tile || blocks[i].Tile == blocks[j].Tile && blocks[i].Index < blocks[j].Index
			})
			b := blocks[rng.Intn(len(blocks))]
			return b, present[b]
		}
		freeRank := func(have *[p]bool) (int, bool) {
			for _, r := range rng.Perm(p) {
				if !have[r] {
					return r, true
				}
			}
			return 0, false
		}
		held := func(have *[p]bool) bool {
			for _, v := range have {
				if v {
					return true
				}
			}
			return false
		}

		for op := 0; op < 40; op++ {
			b, have := pick()
			nbytes := st.Span(b).Len() * raster.BytesPerPixel
			switch rng.Intn(7) {
			case 0: // halve
				if level == maxLevel {
					continue
				}
				st.HalveAll()
				level++
				next := map[schedule.Block]*[p]bool{}
				for b, have := range present {
					c0, c1 := b.Halves()
					h0, h1 := *have, *have
					next[c0], next[c1] = &h0, &h1
				}
				present = next
			case 1: // a decoded fragment in a pooled buffer of its own
				r, ok := freeRank(have)
				if !ok {
					continue
				}
				data := bufpool.Get(nbytes)
				copy(data, layer().SpanBytes(st.Span(b)))
				if _, err := st.Merge(b, []Fragment{{Rng: schedule.RankRange{Lo: r, Hi: r + 1}, Data: data}}); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				have[r] = true
			case 2: // a fragment off the wire
				r, ok := freeRank(have)
				if !ok {
					continue
				}
				cdc := codecs[rng.Intn(len(codecs))]
				enc := codec.EncodeCapped(nil, layer().SpanBytes(st.Span(b)), cdc)
				if _, err := st.MergeEncoded(b, []EncodedFragment{{Rng: schedule.RankRange{Lo: r, Hi: r + 1}, Enc: enc}}, cdc); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				have[r] = true
			case 3: // a send: take, encode (not shown), release
				if !held(have) {
					continue
				}
				frags, err := st.Take(b)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				ReleaseAll(frags)
				*have = [p]bool{}
			case 4: // take and merge back
				if !held(have) {
					continue
				}
				frags, err := st.Take(b)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if _, err := st.Merge(b, frags); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case 5: // a rebuilt layer, staged before the schedule starts
				if level != 0 {
					continue
				}
				r, free := 0, false
				for _, c := range rng.Perm(p) {
					free = true
					for _, have := range present {
						free = free && !have[c]
					}
					if free {
						r = c
						break
					}
				}
				if !free {
					continue
				}
				if _, err := st.InsertLayer(r, layer()); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				for _, have := range present {
					have[r] = true
				}
			case 6:
				if _, err := st.CoalesceAll(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}

		st.Release()
		allocated := bufpool.Default.Stats().Misses - start.Misses
		if drops := bufpool.Default.Stats().Drops - start.Drops; drops != 0 {
			t.Fatalf("seed %d: the pool dropped %d buffers", seed, drops)
		}
		pooled := drainPool(maxBytes)
		if a, b, found := aliased(pooled); found {
			t.Fatalf("seed %d: the pool holds aliasing buffers (%d bytes at %p, %d bytes at %p)",
				seed, len(a), &a[0], len(b), &b[0])
		}
		if int64(len(pooled)) != allocated {
			t.Fatalf("seed %d: the pool handed out %d new buffers and got %d back", seed, allocated, len(pooled))
		}
		st.Release()
		if again := drainPool(maxBytes); len(again) != 0 {
			t.Fatalf("seed %d: a second Release put %d buffers into the pool", seed, len(again))
		}
	}
}
