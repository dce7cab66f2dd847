package fragstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

func newStore(t *testing.T, rank, p, tiles, w, h int) *Store {
	t.Helper()
	sched, err := schedule.RT(p, tiles)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(rank) + 1))
	return New(rank, sched, raster.RandomImage(rng, w, h, 0.3))
}

func TestNewStagesTiles(t *testing.T) {
	st := newStore(t, 1, 4, 3, 20, 10)
	if st.Rank() != 1 {
		t.Fatalf("rank = %d", st.Rank())
	}
	if st.Len() != 3 {
		t.Fatalf("holds %d blocks, want 3", st.Len())
	}
	total := 0
	for _, b := range st.Blocks() {
		frags := st.Frags(b)
		if len(frags) != 1 {
			t.Fatalf("block %v has %d fragments", b, len(frags))
		}
		if frags[0].Rng != (schedule.RankRange{Lo: 1, Hi: 2}) {
			t.Fatalf("block %v provenance %v", b, frags[0].Rng)
		}
		total += st.Span(b).Len()
	}
	if total != 200 {
		t.Fatalf("tiles cover %d of 200 pixels", total)
	}
}

func TestTakeRemovesAndErrors(t *testing.T) {
	st := newStore(t, 0, 2, 2, 8, 8)
	b := schedule.Block{Tile: 0}
	frags, err := st.Take(b)
	if err != nil || len(frags) != 1 {
		t.Fatalf("Take = %v, %v", frags, err)
	}
	if _, err := st.Take(b); err == nil {
		t.Fatal("second Take succeeded")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after Take", st.Len())
	}
}

func TestMergeAdjacentComposites(t *testing.T) {
	st := newStore(t, 1, 3, 1, 8, 1)
	b := schedule.Block{Tile: 0}
	// Incoming front fragment from rank 0.
	incoming := []Fragment{{
		Rng:  schedule.RankRange{Lo: 0, Hi: 1},
		Data: make([]byte, 16),
	}}
	over, err := st.Merge(b, incoming)
	if err != nil {
		t.Fatal(err)
	}
	if over != 8 {
		t.Fatalf("over pixels = %d, want 8", over)
	}
	frags := st.Frags(b)
	if len(frags) != 1 || frags[0].Rng != (schedule.RankRange{Lo: 0, Hi: 2}) {
		t.Fatalf("merged provenance %v", frags[0].Rng)
	}
}

func TestMergeNonAdjacentBuffers(t *testing.T) {
	st := newStore(t, 0, 4, 1, 8, 1)
	b := schedule.Block{Tile: 0}
	incoming := []Fragment{{
		Rng:  schedule.RankRange{Lo: 2, Hi: 3}, // gap at rank 1
		Data: make([]byte, 16),
	}}
	over, err := st.Merge(b, incoming)
	if err != nil {
		t.Fatal(err)
	}
	if over != 0 {
		t.Fatalf("over pixels = %d for buffered merge", over)
	}
	if len(st.Frags(b)) != 2 {
		t.Fatalf("fragments = %d, want 2 buffered", len(st.Frags(b)))
	}
	// Closing the gap composites both joins.
	over, err = st.Merge(b, []Fragment{{
		Rng:  schedule.RankRange{Lo: 1, Hi: 2},
		Data: make([]byte, 16),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if over != 16 {
		t.Fatalf("over pixels = %d closing the gap, want 16", over)
	}
	if len(st.Frags(b)) != 1 {
		t.Fatal("gap not closed")
	}
}

func TestMergeOverlapRejected(t *testing.T) {
	st := newStore(t, 1, 3, 1, 4, 1)
	b := schedule.Block{Tile: 0}
	_, err := st.Merge(b, []Fragment{{
		Rng:  schedule.RankRange{Lo: 1, Hi: 2}, // duplicates local layer
		Data: make([]byte, 8),
	}})
	if err == nil {
		t.Fatal("overlapping merge accepted")
	}
}

func TestHalveAllSharesBuffers(t *testing.T) {
	st := newStore(t, 0, 2, 1, 8, 1)
	parent := schedule.Block{Tile: 0}
	parentData := st.Frags(parent)[0].Data
	st.HalveAll()
	if st.Len() != 2 {
		t.Fatalf("Len = %d after halve", st.Len())
	}
	c0, c1 := parent.Halves()
	d0 := st.Frags(c0)[0].Data
	d1 := st.Frags(c1)[0].Data
	if len(d0)+len(d1) != len(parentData) {
		t.Fatal("children do not cover parent")
	}
	// Children alias the parent buffer (no copying).
	if &d0[0] != &parentData[0] {
		t.Fatal("first child does not alias parent buffer")
	}
	if &d1[0] != &parentData[len(d0)] {
		t.Fatal("second child does not alias parent tail")
	}
}

func TestCheckComplete(t *testing.T) {
	st := newStore(t, 0, 2, 1, 4, 1)
	if err := st.CheckComplete(2); err == nil {
		t.Fatal("incomplete store accepted")
	}
	if _, err := st.Merge(schedule.Block{Tile: 0}, []Fragment{{
		Rng:  schedule.RankRange{Lo: 1, Hi: 2},
		Data: make([]byte, 8),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckComplete(2); err != nil {
		t.Fatalf("complete store rejected: %v", err)
	}
}

func TestBlocksSortedBySpan(t *testing.T) {
	st := newStore(t, 0, 2, 5, 50, 2)
	prev := -1
	for _, b := range st.Blocks() {
		lo := st.Span(b).Lo
		if lo <= prev {
			t.Fatal("blocks not sorted by span")
		}
		prev = lo
	}
}

// layerEnc puts rank r's random layer, restricted to block b's span, into
// its wire form: the codec's stream where that is shorter than the pixels,
// the pixels themselves (the raw escape) where it is not. The 40 %-blank
// general-alpha layers land on both sides: TRLE compresses them, RLE
// cannot.
func layerEnc(t *testing.T, st *Store, b schedule.Block, cdc codec.Codec, r, w, h int) []byte {
	t.Helper()
	img := raster.RandomImage(rand.New(rand.NewSource(int64(100+r))), w, h, 0.4)
	return codec.EncodeCapped(nil, img.SpanBytes(st.Span(b)), cdc)
}

// TestMergeEncodedMatchesMerge proves the fused receive path is
// byte-identical to decode-everything-then-Merge: two identical stores
// receive the same encoded fragments in the same batched order — one via
// DecodeInto+Merge, one via MergeEncoded — and must agree on every over
// count and every held byte after every batch. The batch order exercises
// the isolated-insert, left-adjacent, right-adjacent and gap-bridging
// cases.
func TestMergeEncodedMatchesMerge(t *testing.T) {
	const p, w, h = 6, 16, 3
	codecs := []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}}
	// Rank 2 holds [2,3); the batches hit: isolated insert (4), isolated
	// insert plus bridge into the resident pair (0, 3), left-adjacent
	// extension (5), and a final both-sides bridge (1).
	batches := [][]int{{4}, {0, 3}, {5}, {1}}
	for _, cdc := range codecs {
		t.Run(cdc.Name(), func(t *testing.T) {
			ref := newStore(t, 2, p, 1, w, h)
			fus := newStore(t, 2, p, 1, w, h)
			b := schedule.Block{Tile: 0}
			npix := ref.Span(b).Len()
			for _, batch := range batches {
				var decoded []Fragment
				var encoded []EncodedFragment
				for _, r := range batch {
					enc := layerEnc(t, ref, b, cdc, r, w, h)
					rng := schedule.RankRange{Lo: r, Hi: r + 1}
					dec, err := codec.Resolve(cdc, enc, npix).DecodeInto(nil, enc, npix)
					if err != nil {
						t.Fatal(err)
					}
					decoded = append(decoded, Fragment{Rng: rng, Data: dec})
					encoded = append(encoded, EncodedFragment{Rng: rng, Enc: enc})
				}
				overRef, err := ref.Merge(b, decoded)
				if err != nil {
					t.Fatal(err)
				}
				overFus, err := fus.MergeEncoded(b, encoded, cdc)
				if err != nil {
					t.Fatal(err)
				}
				if overRef != overFus {
					t.Fatalf("batch %v: over pixels %d (fused) != %d (reference)", batch, overFus, overRef)
				}
				fr, ff := ref.Frags(b), fus.Frags(b)
				if len(fr) != len(ff) {
					t.Fatalf("batch %v: %d fragments (fused) != %d (reference)", batch, len(ff), len(fr))
				}
				for i := range fr {
					if fr[i].Rng != ff[i].Rng {
						t.Fatalf("batch %v: fragment %d range %v != %v", batch, i, ff[i].Rng, fr[i].Rng)
					}
					if !bytes.Equal(fr[i].Data, ff[i].Data) {
						t.Fatalf("batch %v: fragment %d %v pixels diverge", batch, i, fr[i].Rng)
					}
				}
			}
			if err := fus.CheckComplete(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergeEncodedCorruptTransactional proves a corrupt payload anywhere in
// a batch leaves the store byte-for-byte untouched — the property the
// compositor's compose-partial policy relies on to drop mangled messages
// like lost ones.
func TestMergeEncodedCorruptTransactional(t *testing.T) {
	const p, w, h = 4, 12, 2
	for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
		t.Run(cdc.Name(), func(t *testing.T) {
			st := newStore(t, 1, p, 1, w, h)
			b := schedule.Block{Tile: 0}
			valid := layerEnc(t, st, b, cdc, 0, w, h)
			corrupt := layerEnc(t, st, b, cdc, 2, w, h)
			corrupt = corrupt[:len(corrupt)-1]
			before := append([]byte(nil), st.Frags(b)[0].Data...)
			_, err := st.MergeEncoded(b, []EncodedFragment{
				{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Enc: valid},
				{Rng: schedule.RankRange{Lo: 2, Hi: 3}, Enc: corrupt},
			}, cdc)
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			frags := st.Frags(b)
			if len(frags) != 1 || frags[0].Rng != (schedule.RankRange{Lo: 1, Hi: 2}) {
				t.Fatalf("store mutated by corrupt batch: %v", ranges(frags))
			}
			if !bytes.Equal(frags[0].Data, before) {
				t.Fatal("resident pixels mutated by corrupt batch")
			}
		})
	}
}

// TestMergeEncodedOverlapRejected mirrors TestMergeOverlapRejected on the
// fused path.
func TestMergeEncodedOverlapRejected(t *testing.T) {
	st := newStore(t, 1, 3, 1, 4, 1)
	b := schedule.Block{Tile: 0}
	enc := codec.RLE{}.EncodeAppend(nil, make([]byte, 8))
	_, err := st.MergeEncoded(b, []EncodedFragment{
		{Rng: schedule.RankRange{Lo: 1, Hi: 2}, Enc: enc}, // duplicates local layer
	}, codec.RLE{})
	if err == nil {
		t.Fatal("overlapping fused merge accepted")
	}
}

// TestMergeEncodedCorruptEscapeTransactional is the corrupt-payload
// contract on the raw escape: dense noise makes every codec ship its
// fragments raw, and a damaged escaped batch must leave the store
// byte-for-byte untouched and wrap codec.ErrCorrupt, even when a valid
// escaped fragment precedes the damage. The damage is a fragment one byte
// short (it no longer has the raw length, so it is read as the codec's
// stream) or one byte long, a fragment laid over resident ranks, and a pair
// whose first member is depth-adjacent to the resident fragment — so an
// eager merge would composite it — before the second overlaps.
func TestMergeEncodedCorruptEscapeTransactional(t *testing.T) {
	const p, w, h = 4, 12, 2
	noise := func(st *Store, b schedule.Block, cdc codec.Codec, r int) []byte {
		img := raster.RandomImage(rand.New(rand.NewSource(int64(200+r))), w, h, 0)
		enc := codec.EncodeCapped(nil, img.SpanBytes(st.Span(b)), cdc)
		if len(enc) != st.Span(b).Len()*raster.BytesPerPixel {
			t.Fatalf("%s: noise fragment was not escaped (%d bytes)", cdc.Name(), len(enc))
		}
		return enc
	}
	intact := func(enc []byte) []byte { return enc }
	for _, cdc := range []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}} {
		b := schedule.Block{Tile: 0}
		for name, tc := range map[string]struct {
			damage      func(enc []byte) []byte
			first, rng2 schedule.RankRange
		}{
			"truncated":      {func(enc []byte) []byte { return enc[:len(enc)-1] }, schedule.RankRange{Lo: 3, Hi: 4}, schedule.RankRange{Lo: 2, Hi: 3}},
			"overlong":       {func(enc []byte) []byte { return append(enc, 0x01) }, schedule.RankRange{Lo: 3, Hi: 4}, schedule.RankRange{Lo: 2, Hi: 3}},
			"overlap":        {intact, schedule.RankRange{Lo: 3, Hi: 4}, schedule.RankRange{Lo: 1, Hi: 3}},
			"adjacent-first": {intact, schedule.RankRange{Lo: 0, Hi: 1}, schedule.RankRange{Lo: 1, Hi: 3}},
			"within-batch":   {intact, schedule.RankRange{Lo: 2, Hi: 4}, schedule.RankRange{Lo: 3, Hi: 4}},
			"empty-range":    {intact, schedule.RankRange{Lo: 0, Hi: 1}, schedule.RankRange{Lo: 3, Hi: 3}},
		} {
			t.Run(cdc.Name()+"/"+name, func(t *testing.T) {
				st := newStore(t, 1, p, 1, w, h)
				before := append([]byte(nil), st.Frags(b)[0].Data...)
				_, err := st.MergeEncoded(b, []EncodedFragment{
					{Rng: tc.first, Enc: noise(st, b, cdc, 3)},
					{Rng: tc.rng2, Enc: tc.damage(noise(st, b, cdc, 2))},
				}, cdc)
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				frags := st.Frags(b)
				if len(frags) != 1 || frags[0].Rng != (schedule.RankRange{Lo: 1, Hi: 2}) {
					t.Fatalf("store mutated by damaged batch: %v", ranges(frags))
				}
				if !bytes.Equal(frags[0].Data, before) {
					t.Fatal("resident pixels mutated by damaged batch")
				}
				// The store must still own its buffer alone: a batch that
				// recycled it would hand the same bytes to the next Get.
				st.Release()
				x, y := bufpool.Get(len(before)), bufpool.Get(len(before))
				if &x[0] == &y[0] {
					t.Fatal("damaged batch left a buffer in the pool twice")
				}
			})
		}
	}
}

// TestMergeOverlapTransactional: the decoded-fragment Merge checks depth
// ranges before it composites, so a batch whose first fragment is adjacent
// to the resident one and whose second overlaps leaves the store as it was.
func TestMergeOverlapTransactional(t *testing.T) {
	const p, w, h = 4, 6, 1
	st := newStore(t, 1, p, 1, w, h)
	b := schedule.Block{Tile: 0}
	before := append([]byte(nil), st.Frags(b)[0].Data...)
	layer := func(v byte) []byte { return bytes.Repeat([]byte{v, 255}, w*h) }
	_, err := st.Merge(b, []Fragment{
		{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Data: layer(9)},
		{Rng: schedule.RankRange{Lo: 1, Hi: 3}, Data: layer(7)},
	})
	if err == nil {
		t.Fatal("overlapping batch accepted")
	}
	frags := st.Frags(b)
	if len(frags) != 1 || frags[0].Rng != (schedule.RankRange{Lo: 1, Hi: 2}) || !bytes.Equal(frags[0].Data, before) {
		t.Fatalf("store mutated by overlapping batch: %v", ranges(frags))
	}
}
