// Package fragstore holds the per-rank block state shared by the parallel
// compositor and the virtual-time simulator: for every block, a list of
// depth-contiguous fragments, each a partial composite of an interval of
// ranks. Merging adjacent fragments applies the "over" operator in depth
// order; halving splits every block into its two children in place.
//
// Memory has one owner from staging to gather. A store stages its image
// with one copy into one pooled slab and owns that slab until Release. Every
// staged or halved fragment is a view into a slab, flagged as such, and a
// view never reaches bufpool.Put — not from the store, not from
// MergeFragments, not from ReleaseAll. The only fragments that recycle on
// their own are whole buffers (a decoded depth-isolated fragment, a caller's
// buffer passed to Merge); when one of those is halved the store adopts it
// as a slab and its halves are views like any other. The pool therefore only
// ever gets back, whole, the buffers it handed out.
package fragstore

import (
	"fmt"

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
	// view marks Data as a window into a slab that a store owns. The zero
	// value, which is what a caller's literal builds, is a buffer owned
	// through the fragment itself.
	view bool
}

// recycle returns the fragment's buffer to the pool, unless it is a view.
func (f Fragment) recycle() {
	if !f.view {
		bufpool.Put(f.Data)
	}
}

// slot is one held block and its fragments.
type slot struct {
	b     schedule.Block
	frags []Fragment
}

// Store is one rank's block state. A released store stages again
// (Restage, RestageTile) into the capacity its tables grew to, so a store
// reused frame after frame stages, halves and releases without allocating.
type Store struct {
	rank  int
	tiles []raster.Span
	table []slot     // held blocks, ascending in pixel position
	slabs [][]byte   // buffers owned whole: staged images and adopted parents
	lists []Fragment // backing of the fragment lists stage and HalveAll make
	used  int        // lists[:used] is in use
}

// New stages a rank's partial image into the initial tile blocks of a
// schedule and returns the store.
func New(rank int, sched *schedule.Schedule, local *raster.Image) *Store {
	st := new(Store)
	st.Restage(rank, sched.TileSpans(local.NPixels()), local)
	return st
}

// Restage is New into st, over the caller's tile spans (stores only ever
// read them): it releases whatever st still holds, then stages local as a
// new store would.
func (st *Store) Restage(rank int, tiles []raster.Span, local *raster.Image) {
	st.Release()
	st.rank, st.tiles = rank, tiles
	if cap(st.table) < 2*len(tiles) {
		// Room for one halving: a step ships half of what a halving makes.
		st.table = make([]slot, 0, 2*len(tiles))
	}
	st.stage(rank, local, 0, len(tiles))
}

// RestageTile is Restage of only one tile's initial block — the staging
// primitive of the pipelined executor, which runs every tile through the
// schedule as an independent state machine with its own store. The store
// still knows all tile spans, so Span resolves any block, but it holds (and
// halves, merges, gathers) blocks of the given tile only.
func (st *Store) RestageTile(rank int, tiles []raster.Span, local *raster.Image, tile int) {
	st.Release()
	st.rank, st.tiles = rank, tiles
	st.stage(rank, local, tile, tile+1)
}

// fragments returns n fragments for the store's new lists, carved from one
// backing array that is kept across releases. Each comes capped at n, so an
// append to a list copies it out instead of running into its neighbour.
func (st *Store) fragments(n int) []Fragment {
	if st.used+n > len(st.lists) {
		// The lists carved so far keep the old array until Release.
		st.lists, st.used = make([]Fragment, max(2*len(st.lists), n)), 0
	}
	l := st.lists[st.used : st.used+n : st.used+n]
	st.used += n
	return l
}

// stage copies tiles [t0, t1) of img into one pooled slab, which the store
// owns from here on, and adds each tile's part of it — a view — to that
// tile's block as layer's contribution, compositing it with depth-adjacent
// holdings. It returns the pixels passed through the over kernel.
func (st *Store) stage(layer int, img *raster.Image, t0, t1 int) (int64, error) {
	base := st.tiles[t0].Lo
	slab := bufpool.Get((st.tiles[t1-1].Hi - base) * raster.BytesPerPixel)
	copy(slab, img.SpanBytes(raster.Span{Lo: base, Hi: st.tiles[t1-1].Hi}))
	st.slabs = append(st.slabs, slab)
	lists := st.fragments(t1 - t0)
	var overPix int64
	for t := t0; t < t1; t++ {
		span := st.tiles[t]
		b := schedule.Block{Tile: t}
		lists[0] = Fragment{
			Rng:  schedule.RankRange{Lo: layer, Hi: layer + 1},
			Data: slab[(span.Lo-base)*raster.BytesPerPixel : (span.Hi-base)*raster.BytesPerPixel],
			view: true,
		}
		frags := lists[:1:1]
		if held := st.Frags(b); len(held) > 0 {
			frags = append(held, frags...)
		}
		merged, overs, err := MergeFragments(frags)
		if err != nil {
			return overPix, fmt.Errorf("fragstore: staging layer %d on rank %d: %w", layer, st.rank, err)
		}
		st.put(b, merged)
		lists = lists[1:]
		overPix += overs
	}
	return overPix, nil
}

// before orders two disjoint blocks by pixel position. Within a tile that
// is the order of their indices brought to a common level, which, unlike
// the spans, also tells apart the empty blocks of an image with fewer pixels
// than blocks.
func before(a, b schedule.Block) bool {
	if a.Tile != b.Tile {
		return a.Tile < b.Tile
	}
	l := max(a.Level, b.Level)
	return a.Index<<uint(l-a.Level) < b.Index<<uint(l-b.Level)
}

// find returns b's position in the table, or the position it would be
// inserted at.
func (st *Store) find(b schedule.Block) (int, bool) {
	lo, hi := 0, len(st.table)
	for lo < hi {
		if mid := (lo + hi) / 2; before(st.table[mid].b, b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(st.table) && st.table[lo].b == b
}

// put sets a block's fragment list, adding the block to the table if need be.
func (st *Store) put(b schedule.Block, frags []Fragment) {
	i, held := st.find(b)
	if !held {
		st.table = append(st.table, slot{})
		copy(st.table[i+1:], st.table[i:])
		st.table[i].b = b
	}
	st.table[i].frags = frags
}

// InsertLayer stages an extra rank's sub-image into every tile block —
// how a buddy contributes a dead rank's replicated sub-image during a
// recovery epoch. Fragments adjacent in depth to existing holdings are
// composited immediately, so a buddy pair's two layers coalesce at staging
// time. It returns the pixels passed through the over kernel.
func (st *Store) InsertLayer(layer int, img *raster.Image) (int64, error) {
	return st.stage(layer, img, 0, len(st.tiles))
}

// CoalesceAll composites every held block's adjacent fragments — the
// no-transfer merges of a repaired schedule leave depth-adjacent fragments
// co-resident that a normal run would have composited on receipt. It
// returns the pixels passed through the over kernel.
func (st *Store) CoalesceAll() (int64, error) {
	var overPix int64
	for i := range st.table {
		s := &st.table[i]
		if len(s.frags) <= 1 {
			continue
		}
		merged, overs, err := MergeFragments(s.frags)
		if err != nil {
			return overPix, fmt.Errorf("fragstore: coalescing block %v on rank %d: %w", s.b, st.rank, err)
		}
		s.frags = merged
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
func (st *Store) Len() int { return len(st.table) }

// At returns the i-th held block, in ascending pixel position, and its
// fragment list.
func (st *Store) At(i int) (schedule.Block, []Fragment) { return st.table[i].b, st.table[i].frags }

// Frags returns the fragment list of a block (nil if not held).
func (st *Store) Frags(b schedule.Block) []Fragment {
	if i, held := st.find(b); held {
		return st.table[i].frags
	}
	return nil
}

// Take removes and returns a block's fragments; it errors if the block is
// not held. Hand them to ReleaseAll once consumed: whatever the store still
// owns of them (the views) stays put until Release.
func (st *Store) Take(b schedule.Block) ([]Fragment, error) {
	i, held := st.find(b)
	if !held || len(st.table[i].frags) == 0 {
		return nil, fmt.Errorf("fragstore: rank %d does not hold block %v", st.rank, b)
	}
	frags := st.table[i].frags
	st.table = append(st.table[:i], st.table[i+1:]...)
	return frags, nil
}

// Merge adds incoming fragments to a block and composites adjacent depth
// ranges. It returns the number of pixels passed through the over kernel.
// Depth ranges are checked before anything is composited or recycled, so a
// batch that overlaps itself or the resident holdings leaves the store
// untouched (the incoming buffers stay the caller's).
func (st *Store) Merge(b schedule.Block, incoming []Fragment) (int64, error) {
	resident := st.Frags(b)
	for j, f := range incoming {
		other, clash := overlapping(resident, f.Rng)
		if !clash {
			other, clash = overlapping(incoming[:j], f.Rng)
		}
		if clash {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: fragments %v and %v overlap",
				b, st.rank, other, f.Rng)
		}
	}
	merged, overPix, err := MergeFragments(append(resident, incoming...))
	if err != nil {
		return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
	}
	st.put(b, merged)
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
// taken for pixels, and nothing in the bytes can tell.) A fragment that is
// depth-adjacent to resident holdings is decoded and composited in one pass
// straight into the resident buffer (codec.Codec's DecodeOver) — the
// decoded pixels never exist as a block; only depth-isolated fragments are
// materialized into pooled buffers.
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
// must pass its decoder's checks (CheckStream applies all of DecodeInto's).
// A batch that fails returns an error wrapping codec.ErrCorrupt with the
// store untouched — a degradation policy can drop it like a lost message.
// The incoming Enc views are never retained; the caller may recycle the
// underlying message buffer on return.
func (st *Store) MergeEncoded(b schedule.Block, incoming []EncodedFragment, cdc codec.Codec) (int64, error) {
	npix := st.Span(b).Len()
	held := st.Frags(b)
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
		if err := codec.Resolve(cdc, ef.Enc, npix).CheckStream(ef.Enc, npix); err != nil {
			return 0, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
		}
	}

	held, overPix, err := mergeFused(held, incoming, cdc, npix)
	if len(held) > 0 {
		st.put(b, held)
	}
	if err != nil {
		return overPix, fmt.Errorf("fragstore: merging block %v on rank %d: %w", b, st.rank, err)
	}
	return overPix, nil
}

// mergeFused folds validated, depth-sorted encoded fragments into a block's
// fragment list (sorted, disjoint, coalesced — and returned so) and reports
// the pixels composited.
func mergeFused(held []Fragment, incoming []EncodedFragment, cdc codec.Codec, npix int) ([]Fragment, int64, error) {
	var overPix int64
	for _, ef := range incoming {
		dec := codec.Resolve(cdc, ef.Enc, npix)
		// Find the insertion point and the neighbors the new fragment
		// touches.
		idx := 0
		for idx < len(held) && held[idx].Rng.Lo < ef.Rng.Lo {
			idx++
		}
		switch {
		case idx > 0 && held[idx-1].Rng.Hi == ef.Rng.Lo:
			// Resident neighbor in front: resident over decoded, fused into
			// the resident buffer.
			n, err := dec.DecodeOver(held[idx-1].Data, ef.Enc, npix, false)
			overPix += int64(n)
			if err != nil {
				return held, overPix, err
			}
			held[idx-1].Rng.Hi = ef.Rng.Hi
			// The extension may bridge to the next resident fragment;
			// coalesce exactly as MergeFragments would (front over back
			// into the back's buffer, recycling the front's).
			if idx < len(held) && held[idx].Rng.Lo == held[idx-1].Rng.Hi {
				overPix += int64(compose.OverU8(held[idx].Data, held[idx-1].Data, held[idx].Data))
				held[idx-1].recycle()
				held[idx].Rng.Lo = held[idx-1].Rng.Lo
				held = append(held[:idx-1], held[idx:]...)
			}
		case idx < len(held) && held[idx].Rng.Lo == ef.Rng.Hi:
			// Resident neighbor behind: decoded over resident, fused into
			// the resident buffer.
			n, err := dec.DecodeOver(held[idx].Data, ef.Enc, npix, true)
			overPix += int64(n)
			if err != nil {
				return held, overPix, err
			}
			held[idx].Rng.Lo = ef.Rng.Lo
		default:
			// Depth-isolated: materialize into a pooled buffer, owned
			// through the fragment.
			data, err := dec.DecodeInto(bufpool.Get(npix*raster.BytesPerPixel), ef.Enc, npix)
			if err != nil {
				return held, overPix, err
			}
			held = append(held, Fragment{})
			copy(held[idx+1:], held[idx:])
			held[idx] = Fragment{Rng: ef.Rng, Data: data}
		}
	}
	return held, overPix, nil
}

// HalveAll splits every held block into its two children. The children are
// views of disjoint halves of the parent's fragments, so no pixel data is
// copied; a parent that was a whole buffer is adopted as a slab, so that it
// goes back to the pool in one piece, at Release, and never as its halves.
func (st *Store) HalveAll() {
	n, nfrags := len(st.table), 0
	for _, s := range st.table {
		nfrags += len(s.frags)
	}
	lists := st.fragments(2 * nfrags)
	st.table = append(st.table, st.table...)
	// Back to front, so that children never overwrite an unread parent.
	for i := n - 1; i >= 0; i-- {
		parent := st.table[i]
		c0, c1 := parent.b.Halves()
		cut := st.Span(c0).Len() * raster.BytesPerPixel
		k := len(parent.frags)
		f0, f1 := lists[:k:k], lists[k:2*k:2*k]
		lists = lists[2*k:]
		for j, f := range parent.frags {
			if !f.view {
				st.slabs = append(st.slabs, f.Data)
			}
			f0[j] = Fragment{Rng: f.Rng, Data: f.Data[:cut], view: true}
			f1[j] = Fragment{Rng: f.Rng, Data: f.Data[cut:], view: true}
		}
		st.table[2*i], st.table[2*i+1] = slot{c0, f0}, slot{c1, f1}
	}
}

// Blocks returns the held blocks sorted by their pixel span position.
func (st *Store) Blocks() []schedule.Block {
	blocks := make([]schedule.Block, len(st.table))
	for i, s := range st.table {
		blocks[i] = s.b
	}
	return blocks
}

// CopyInto writes every held block's leading fragment — the block's
// composite, once CheckComplete has passed — into its span of out and
// returns the pixels covered.
func (st *Store) CopyInto(out *raster.Image) int {
	covered := 0
	for _, s := range st.table {
		span := st.Span(s.b)
		out.InsertSpan(span, s.frags[0].Data)
		covered += span.Len()
	}
	return covered
}

// FillGaps completes every held block to the full rank range [0, p) by
// splicing in blank fragments for the rank intervals that never arrived —
// the compose-partial degradation path. Blank pixels are the identity of
// the over operator, so the result is the exact composite of the
// contributions that did arrive. It returns the number of missing
// layer-pixels (pixels times absent ranks), zero when nothing was missing.
func (st *Store) FillGaps(p int) (missingLayerPix int64, err error) {
	full := schedule.RankRange{Lo: 0, Hi: p}
	for i := range st.table {
		b, frags := st.table[i].b, st.table[i].frags
		if len(frags) == 1 && frags[0].Rng == full {
			continue
		}
		span := b.Span(st.tiles)
		nbytes := span.Len() * raster.BytesPerPixel
		sortByDepth(frags)
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
		st.table[i].frags = merged
	}
	return missingLayerPix, nil
}

// CheckComplete verifies every held block is fully composited over all p
// ranks.
func (st *Store) CheckComplete(p int) error {
	full := schedule.RankRange{Lo: 0, Hi: p}
	for _, s := range st.table {
		if len(s.frags) != 1 || s.frags[0].Rng != full {
			return fmt.Errorf("fragstore: rank %d finished with block %v composited over %v",
				st.rank, s.b, ranges(s.frags))
		}
	}
	return nil
}

// sortByDepth orders fragments by depth range. Fragment lists are a handful
// of entries; insertion sort keeps the hot path free of sort.Slice's closure
// and reflection allocations.
func sortByDepth(frags []Fragment) {
	for i := 1; i < len(frags); i++ {
		for j := i; j > 0 && frags[j].Rng.Lo < frags[j-1].Rng.Lo; j-- {
			frags[j], frags[j-1] = frags[j-1], frags[j]
		}
	}
}

// MergeFragments sorts fragments by depth range and composites adjacent
// ones (front over back), returning the coalesced list and the number of
// pixels composited. Overlapping ranges are an error: some layer would be
// composited twice; it is reported before anything is composited or
// recycled, with frags sorted but otherwise as passed.
//
// A composite lands in the back fragment's buffer and the front fragment is
// dropped: recycled here when it was a whole buffer, left to its store's
// slab when it was a view.
func MergeFragments(frags []Fragment) ([]Fragment, int64, error) {
	sortByDepth(frags)
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
		overPix += int64(compose.OverU8(f.Data, last.Data, f.Data))
		last.recycle()
		last.Rng.Hi, last.Data, last.view = f.Rng.Hi, f.Data, f.view
	}
	return out, overPix, nil
}

// Release returns everything the store owns to the pool — its slabs, whole,
// and the whole buffers its fragments own — and empties it, keeping the
// capacity of its tables for a Restage; releasing an empty store does
// nothing. Call only once the composited data has been fully consumed (e.g.
// gathered and copied into the final image) and no fragment taken from the
// store is still in use.
func (st *Store) Release() {
	for _, s := range st.table {
		ReleaseAll(s.frags)
	}
	for _, slab := range st.slabs {
		bufpool.Put(slab)
	}
	clear(st.table)
	clear(st.slabs)
	clear(st.lists[:st.used])
	st.table, st.slabs, st.used = st.table[:0], st.slabs[:0], 0
}

// ReleaseAll recycles the fragments that own their buffer and clears every
// Data pointer. Call only when the fragment data has been fully consumed
// (e.g. encoded onto the wire) and no other reference remains.
func ReleaseAll(frags []Fragment) {
	for i := range frags {
		frags[i].recycle()
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
