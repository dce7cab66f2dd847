// Package fragstore holds the per-rank block state shared by the parallel
// compositor and the virtual-time simulator: for every block, a list of
// depth-contiguous fragments, each a partial composite of an interval of
// ranks. Merging adjacent fragments applies the "over" operator in depth
// order; halving splits every block into its two children in place.
package fragstore

import (
	"fmt"
	"sort"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// Fragment is a depth-contiguous partial composite of one block: the layers
// of ranks [Rng.Lo, Rng.Hi) composited in order.
type Fragment struct {
	Rng  schedule.RankRange
	Data []byte
}

// Store is one rank's block state.
type Store struct {
	rank  int
	tiles []raster.Span
	held  map[schedule.Block][]Fragment
}

// New stages a rank's partial image into the initial tile blocks of a
// schedule and returns the store.
func New(rank int, sched *schedule.Schedule, local *raster.Image) *Store {
	st := &Store{
		rank:  rank,
		tiles: sched.TileSpans(local.NPixels()),
		held:  map[schedule.Block][]Fragment{},
	}
	for t := 0; t < sched.Tiles; t++ {
		b := schedule.Block{Tile: t}
		st.held[b] = []Fragment{{
			Rng:  schedule.RankRange{Lo: rank, Hi: rank + 1},
			Data: copySpan(local, b.Span(st.tiles)),
		}}
	}
	return st
}

// NewTile stages only one tile's initial block of a rank's partial image —
// the staging primitive of the pipelined executor, which runs every tile
// through the schedule as an independent state machine with its own store.
// The store still knows all tile spans, so Span resolves any block, but it
// holds (and halves, merges, gathers) blocks of the given tile only.
func NewTile(rank int, sched *schedule.Schedule, local *raster.Image, tile int) *Store {
	return NewTileShared(rank, sched.TileSpans(local.NPixels()), local, tile)
}

// NewTileShared is NewTile with the tile spans precomputed by the caller.
// The executor builds one span table per run and hands it to every tile's
// store (stores only ever read it), instead of recomputing and reallocating
// it once per tile.
func NewTileShared(rank int, tiles []raster.Span, local *raster.Image, tile int) *Store {
	st := &Store{
		rank:  rank,
		tiles: tiles,
		held:  map[schedule.Block][]Fragment{},
	}
	b := schedule.Block{Tile: tile}
	st.held[b] = []Fragment{{
		Rng:  schedule.RankRange{Lo: rank, Hi: rank + 1},
		Data: copySpan(local, b.Span(st.tiles)),
	}}
	return st
}

// copySpan stages a span of an image into a pooled buffer, so staging
// participates in the same recycle cycle as every other store buffer.
func copySpan(img *raster.Image, s raster.Span) []byte {
	data := bufpool.Get(s.Len() * raster.BytesPerPixel)
	copy(data, img.SpanBytes(s))
	return data
}

// InsertLayer stages an extra rank's sub-image into every tile block —
// how a buddy contributes a dead rank's replicated sub-image during a
// recovery epoch. Fragments adjacent in depth to existing holdings are
// composited immediately, so a buddy pair's two layers coalesce at staging
// time. It returns the pixels passed through the over kernel.
func (st *Store) InsertLayer(layer int, img *raster.Image) (int64, error) {
	var overPix int64
	for t := range st.tiles {
		b := schedule.Block{Tile: t}
		frags := append(st.held[b], Fragment{
			Rng:  schedule.RankRange{Lo: layer, Hi: layer + 1},
			Data: copySpan(img, b.Span(st.tiles)),
		})
		merged, overs, err := MergeFragments(frags)
		if err != nil {
			return overPix, fmt.Errorf("fragstore: staging layer %d on rank %d: %w", layer, st.rank, err)
		}
		st.held[b] = merged
		overPix += overs
	}
	return overPix, nil
}

// CoalesceAll composites every held block's adjacent fragments — the
// no-transfer merges of a repaired schedule leave depth-adjacent fragments
// co-resident that a normal run would have composited on receipt. It
// returns the pixels passed through the over kernel.
func (st *Store) CoalesceAll() (int64, error) {
	var overPix int64
	for b, frags := range st.held {
		if len(frags) <= 1 {
			continue
		}
		merged, overs, err := MergeFragments(frags)
		if err != nil {
			return overPix, fmt.Errorf("fragstore: coalescing block %v on rank %d: %w", b, st.rank, err)
		}
		st.held[b] = merged
		overPix += overs
	}
	return overPix, nil
}

// Rank returns the owning rank.
func (st *Store) Rank() int { return st.rank }

// Tiles returns the tile spans of the image being composited.
func (st *Store) Tiles() []raster.Span { return st.tiles }

// Span resolves a block to its pixel span.
func (st *Store) Span(b schedule.Block) raster.Span { return b.Span(st.tiles) }

// Len reports how many blocks the store currently holds.
func (st *Store) Len() int { return len(st.held) }

// Frags returns the fragment list of a block (nil if not held).
func (st *Store) Frags(b schedule.Block) []Fragment { return st.held[b] }

// Take removes and returns a block's fragments; it errors if the block is
// not held.
func (st *Store) Take(b schedule.Block) ([]Fragment, error) {
	frags, ok := st.held[b]
	if !ok || len(frags) == 0 {
		return nil, fmt.Errorf("fragstore: rank %d does not hold block %v", st.rank, b)
	}
	delete(st.held, b)
	return frags, nil
}

// Merge adds incoming fragments to a block and composites adjacent depth
// ranges. It returns the number of pixels passed through the over kernel.
// Depth ranges are checked before anything is composited or recycled, so a
// batch that overlaps itself or the resident holdings leaves the store
// untouched (the incoming buffers stay the caller's).
func (st *Store) Merge(b schedule.Block, incoming []Fragment) (int64, error) {
	held := st.held[b]
	for i, f := range incoming {
		other, clash := overlapping(held, f.Rng)
		if !clash {
			other, clash = overlapping(incoming[:i], f.Rng)
		}
		if clash {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: fragments %v and %v overlap",
				b, st.rank, other, f.Rng)
		}
	}
	merged, overPix, err := MergeFragments(append(held, incoming...))
	if err != nil {
		return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
	}
	st.held[b] = merged
	return overPix, nil
}

// overlapping returns the depth range of the first fragment that shares a
// rank with rng.
func overlapping(frags []Fragment, rng schedule.RankRange) (schedule.RankRange, bool) {
	for _, f := range frags {
		if f.Rng.Lo < rng.Hi && rng.Lo < f.Rng.Hi {
			return f.Rng, true
		}
	}
	return schedule.RankRange{}, false
}

// EncodedFragment is a depth range plus its still-encoded pixel block — a
// view into a received block message that MergeEncoded consumes without
// decoding into a scratch buffer first. Enc is the wire form
// codec.EncodeCapped produced, not a bare Codec.EncodeAppend stream.
type EncodedFragment struct {
	Rng schedule.RankRange
	Enc []byte
}

// MergeEncoded merges still-encoded fragments into a block. Each Enc must be
// the wire form codec.EncodeCapped produced under cdc, so a fragment that
// arrives at the raw length resolves to codec.Raw — an incompressible block
// feeds compose.OverU8 straight off the receive buffer, with no decode pass
// — and any other to cdc. (A bare cdc stream is therefore only safe to pass
// when it cannot have the raw length: at exactly that length it would be
// taken for pixels, and nothing in the bytes can tell.) When cdc supports
// the fused receive path (codec.OverDecoder), a fragment that is
// depth-adjacent to resident holdings is decoded and composited in one pass
// straight into the resident buffer — the decoded pixels never exist as a
// block; only depth-isolated fragments are materialized into pooled
// buffers. Codecs without the fused path decode every fragment and defer to
// Merge.
//
// The composite is byte-identical to decode-everything-then-Merge: incoming
// fragments are processed in ascending depth order with immediate
// coalescing on both sides, which reproduces MergeFragments' left-to-right
// fold exactly (the over operator is only exactly associative for binary
// alphas, so the fold order is part of the repo-wide byte-identity
// contract).
//
// The whole batch is validated before the first pixel is composited or
// buffer recycled: every depth range must be non-empty and share no rank
// with another of the batch or with the resident holdings, and every stream
// must pass its decoder's checks (CheckStream applies all of DecodeInto's;
// the non-fused path decodes into buffers of its own first). A batch that
// fails returns an error wrapping codec.ErrCorrupt with the store untouched
// — a degradation policy can drop it like a lost message. The incoming Enc
// views are never retained; the caller may recycle the underlying message
// buffer on return.
func (st *Store) MergeEncoded(b schedule.Block, incoming []EncodedFragment, cdc codec.Codec) (int64, error) {
	npix := st.Span(b).Len()
	held := st.held[b]
	// Ascending depth order; incoming lists are tiny (usually one entry).
	for i := 1; i < len(incoming); i++ {
		for j := i; j > 0 && incoming[j].Rng.Lo < incoming[j-1].Rng.Lo; j-- {
			incoming[j], incoming[j-1] = incoming[j-1], incoming[j]
		}
	}
	for i, ef := range incoming {
		if ef.Rng.Lo < 0 || ef.Rng.Lo >= ef.Rng.Hi {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w: depth range %v",
				b, st.rank, codec.ErrCorrupt, ef.Rng)
		}
		other, clash := overlapping(held, ef.Rng)
		if !clash && i > 0 && incoming[i-1].Rng.Hi > ef.Rng.Lo {
			other, clash = incoming[i-1].Rng, true
		}
		if clash {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w: fragments %v and %v overlap",
				b, st.rank, codec.ErrCorrupt, other, ef.Rng)
		}
	}
	if _, fused := cdc.(codec.OverDecoder); !fused {
		var frags []Fragment
		for _, ef := range incoming {
			data, err := codec.Resolve(cdc, ef.Enc, npix).DecodeInto(bufpool.Get(npix*raster.BytesPerPixel), ef.Enc, npix)
			if err != nil {
				ReleaseAll(frags)
				return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
			}
			frags = append(frags, Fragment{Rng: ef.Rng, Data: data})
		}
		return st.Merge(b, frags)
	}
	// resolve picks a fragment's fused decoder; Raw and a fused cdc both
	// are one.
	resolve := func(enc []byte) codec.OverDecoder {
		return codec.Resolve(cdc, enc, npix).(codec.OverDecoder)
	}
	for _, ef := range incoming {
		if err := resolve(ef.Enc).CheckStream(ef.Enc, npix); err != nil {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
		}
	}

	var overPix int64
	for _, ef := range incoming {
		od := resolve(ef.Enc)
		// held stays sorted, disjoint and coalesced; find the insertion
		// point and the neighbors the new fragment touches.
		idx := 0
		for idx < len(held) && held[idx].Rng.Lo < ef.Rng.Lo {
			idx++
		}
		switch {
		case idx > 0 && held[idx-1].Rng.Hi == ef.Rng.Lo:
			// Resident neighbor in front: resident over decoded, fused into
			// the resident buffer.
			n, err := od.DecodeOver(held[idx-1].Data, ef.Enc, npix, false)
			overPix += int64(n)
			if err != nil {
				st.held[b] = held
				return overPix, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
			}
			held[idx-1].Rng.Hi = ef.Rng.Hi
			// The extension may bridge to the next resident fragment;
			// coalesce exactly as MergeFragments would (front over back
			// into the back's buffer, recycling the front's).
			if idx < len(held) && held[idx].Rng.Lo == held[idx-1].Rng.Hi {
				overPix += int64(compose.OverU8(held[idx].Data, held[idx-1].Data, held[idx].Data))
				bufpool.Put(held[idx-1].Data)
				held[idx].Rng.Lo = held[idx-1].Rng.Lo
				held = append(held[:idx-1], held[idx:]...)
			}
		case idx < len(held) && held[idx].Rng.Lo == ef.Rng.Hi:
			// Resident neighbor behind: decoded over resident, fused into
			// the resident buffer.
			n, err := od.DecodeOver(held[idx].Data, ef.Enc, npix, true)
			overPix += int64(n)
			if err != nil {
				st.held[b] = held
				return overPix, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
			}
			held[idx].Rng.Lo = ef.Rng.Lo
		default:
			// Depth-isolated: materialize into a pooled buffer.
			data, err := od.DecodeInto(bufpool.Get(npix*raster.BytesPerPixel), ef.Enc, npix)
			if err != nil {
				st.held[b] = held
				return overPix, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
			}
			held = append(held, Fragment{})
			copy(held[idx+1:], held[idx:])
			held[idx] = Fragment{Rng: ef.Rng, Data: data}
		}
	}
	st.held[b] = held
	return overPix, nil
}

// HalveAll splits every held block into its two children. The children
// alias disjoint halves of the parent buffers, so no pixel data is copied.
// The front half is capacity-capped (three-index sliced) so each child's
// capacity witnesses exactly its exclusive region: either half can later be
// released to the buffer pool without the pool ever handing out bytes the
// sibling still owns.
func (st *Store) HalveAll() {
	next := make(map[schedule.Block][]Fragment, 2*len(st.held))
	for b, frags := range st.held {
		c0, c1 := b.Halves()
		cut := c0.Span(st.tiles).Len() * raster.BytesPerPixel
		f0 := make([]Fragment, len(frags))
		f1 := make([]Fragment, len(frags))
		for i, f := range frags {
			f0[i] = Fragment{Rng: f.Rng, Data: f.Data[:cut:cut]}
			f1[i] = Fragment{Rng: f.Rng, Data: f.Data[cut:]}
		}
		next[c0], next[c1] = f0, f1
	}
	st.held = next
}

// Blocks returns the held blocks sorted by their pixel span position.
func (st *Store) Blocks() []schedule.Block {
	blocks := make([]schedule.Block, 0, len(st.held))
	for b := range st.held {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		return blocks[i].Span(st.tiles).Lo < blocks[j].Span(st.tiles).Lo
	})
	return blocks
}

// FillGaps completes every held block to the full rank range [0, p) by
// splicing in blank fragments for the rank intervals that never arrived —
// the compose-partial degradation path. Blank pixels are the identity of
// the over operator, so the result is the exact composite of the
// contributions that did arrive. It returns the number of missing
// layer-pixels (pixels times absent ranks), zero when nothing was missing.
func (st *Store) FillGaps(p int) (missingLayerPix int64, err error) {
	full := schedule.RankRange{Lo: 0, Hi: p}
	for b, frags := range st.held {
		if len(frags) == 1 && frags[0].Rng == full {
			continue
		}
		span := b.Span(st.tiles)
		nbytes := span.Len() * raster.BytesPerPixel
		sort.Slice(frags, func(i, j int) bool { return frags[i].Rng.Lo < frags[j].Rng.Lo })
		filled := make([]Fragment, 0, 2*len(frags)+1)
		next := 0
		for _, f := range frags {
			if f.Rng.Lo > next {
				gap := schedule.RankRange{Lo: next, Hi: f.Rng.Lo}
				missingLayerPix += int64(span.Len()) * int64(gap.Len())
				filled = append(filled, Fragment{Rng: gap, Data: make([]byte, nbytes)})
			}
			filled = append(filled, f)
			next = f.Rng.Hi
		}
		if next < p {
			gap := schedule.RankRange{Lo: next, Hi: p}
			missingLayerPix += int64(span.Len()) * int64(gap.Len())
			filled = append(filled, Fragment{Rng: gap, Data: make([]byte, nbytes)})
		}
		merged, _, err := MergeFragments(filled)
		if err != nil {
			return missingLayerPix, fmt.Errorf("fragstore: filling gaps of block %v on rank %d: %w", b, st.rank, err)
		}
		st.held[b] = merged
	}
	return missingLayerPix, nil
}

// CheckComplete verifies every held block is fully composited over all p
// ranks.
func (st *Store) CheckComplete(p int) error {
	full := schedule.RankRange{Lo: 0, Hi: p}
	for b, frags := range st.held {
		if len(frags) != 1 || frags[0].Rng != full {
			return fmt.Errorf("fragstore: rank %d finished with block %v composited over %v",
				st.rank, b, ranges(frags))
		}
	}
	return nil
}

// MergeFragments sorts fragments by depth range and composites adjacent
// ones (front over back), returning the coalesced list and the number of
// pixels composited. Overlapping ranges are an error: some layer would be
// composited twice; it is reported before anything is composited or
// recycled, with frags sorted but otherwise as passed.
//
// Store buffers are exclusively owned (staging copies, decode copies,
// halving partitions capacities), so the buffer a composite drops is
// returned to the pool here — the recycling half of the steady-state cycle.
func MergeFragments(frags []Fragment) ([]Fragment, int64, error) {
	// Fragment lists are a handful of entries; insertion sort keeps the hot
	// path free of sort.Slice's closure and reflection allocations.
	for i := 1; i < len(frags); i++ {
		for j := i; j > 0 && frags[j].Rng.Lo < frags[j-1].Rng.Lo; j-- {
			frags[j], frags[j-1] = frags[j-1], frags[j]
		}
	}
	for i := 1; i < len(frags); i++ {
		if frags[i].Rng.Lo < frags[i-1].Rng.Hi {
			return nil, 0, fmt.Errorf("fragments %v and %v overlap", frags[i-1].Rng, frags[i].Rng)
		}
	}
	var overPix int64
	out := frags[:1]
	for _, f := range frags[1:] {
		last := &out[len(out)-1]
		if f.Rng.Lo != last.Rng.Hi {
			out = append(out, f)
			continue
		}
		// last is in front: composite last over f, adopting f's buffer so
		// sibling halves sharing last's parent buffer stay intact.
		overPix += int64(compose.OverU8(f.Data, last.Data, f.Data))
		bufpool.Put(last.Data)
		last.Rng.Hi = f.Rng.Hi
		last.Data = f.Data
	}
	return out, overPix, nil
}

// Release returns every held fragment buffer to the pool and empties the
// store. Call only once the composited data has been fully consumed (e.g.
// gathered and copied into the final image).
func (st *Store) Release() {
	for _, frags := range st.held {
		ReleaseAll(frags)
	}
	clear(st.held)
}

// ReleaseAll returns every fragment's buffer to the pool and clears the
// Data pointers. Call only when the fragment data has been fully consumed
// (e.g. encoded onto the wire) and no other reference remains.
func ReleaseAll(frags []Fragment) {
	for i := range frags {
		bufpool.Put(frags[i].Data)
		frags[i].Data = nil
	}
}

func ranges(frags []Fragment) []schedule.RankRange {
	out := make([]schedule.RankRange, len(frags))
	for i, f := range frags {
		out[i] = f.Rng
	}
	return out
}
