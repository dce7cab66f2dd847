package schedule

import (
	"fmt"
	"sort"

	"rtcomp/internal/raster"
)

// Holding is a fully composited final block and the rank that owns it after
// the schedule has run.
type Holding struct {
	Rank  int
	Block Block
}

// RankStep is the traffic one rank generates in one step.
type RankStep struct {
	MsgsSent   int
	BytesSent  int64 // fragment-weighted payload bytes, uncompressed
	BytesRecv  int64
	OverPixels int64 // pixels passed through the over operator on receipt
}

// Census is the symbolic traffic accounting of a schedule for a given image
// size: what the network and the over kernels would carry with the raw
// codec. Indexed PerRank[step][rank].
type Census struct {
	P       int
	NPixels int
	PerRank [][]RankStep
	Final   []Holding
}

// TotalMessages sums messages over all steps and ranks.
func (c *Census) TotalMessages() int {
	n := 0
	for _, step := range c.PerRank {
		for _, rs := range step {
			n += rs.MsgsSent
		}
	}
	return n
}

// TotalBytes sums payload bytes over all steps and ranks.
func (c *Census) TotalBytes() int64 {
	var n int64
	for _, step := range c.PerRank {
		for _, rs := range step {
			n += rs.BytesSent
		}
	}
	return n
}

// TotalOverPixels sums over-composited pixels over all steps and ranks.
func (c *Census) TotalOverPixels() int64 {
	var n int64
	for _, step := range c.PerRank {
		for _, rs := range step {
			n += rs.OverPixels
		}
	}
	return n
}

// MaxRankStep returns, for each step, the largest per-rank values — the
// critical-path view of a step under perfect overlap.
func (c *Census) MaxRankStep() []RankStep {
	out := make([]RankStep, len(c.PerRank))
	for s, step := range c.PerRank {
		for _, rs := range step {
			if rs.MsgsSent > out[s].MsgsSent {
				out[s].MsgsSent = rs.MsgsSent
			}
			if rs.BytesSent > out[s].BytesSent {
				out[s].BytesSent = rs.BytesSent
			}
			if rs.BytesRecv > out[s].BytesRecv {
				out[s].BytesRecv = rs.BytesRecv
			}
			if rs.OverPixels > out[s].OverPixels {
				out[s].OverPixels = rs.OverPixels
			}
		}
	}
	return out
}

// Validate symbolically executes the schedule for an image of npix pixels
// and proves the composition invariant: after the last step the final
// blocks partition the image, each held by exactly one rank, and each
// composited from every rank's layer exactly once in depth order. It
// returns the traffic census and final block owners.
func Validate(s *Schedule, npix int) (*Census, error) {
	return ValidateFrom(s, npix, nil)
}

// ValidateFrom is Validate for a schedule whose initial layers are staged
// at arbitrary ranks: owners[l] is the rank holding layer l's sub-image
// (several layers may share an owner — a survivor staging the dead layers
// behind it next to its own, as Repair plans). A nil owners slice means the
// identity staging of a fresh composition.
func ValidateFrom(s *Schedule, npix int, owners []int) (*Census, error) {
	if s.P < 1 {
		return nil, fmt.Errorf("schedule %q: invalid P=%d", s.Name, s.P)
	}
	if npix < s.Tiles {
		return nil, fmt.Errorf("schedule %q: image of %d pixels cannot be cut into %d tiles", s.Name, npix, s.Tiles)
	}
	if owners != nil && len(owners) != s.P {
		return nil, fmt.Errorf("schedule %q: %d layer owners for P=%d", s.Name, len(owners), s.P)
	}
	tiles := s.TileSpans(npix)

	// held[r][block] = fragment list, kept sorted by Lo and maximally merged.
	held := make([]map[Block][]RankRange, s.P)
	for r := 0; r < s.P; r++ {
		held[r] = map[Block][]RankRange{}
	}
	for l := 0; l < s.P; l++ {
		owner := l
		if owners != nil {
			owner = owners[l]
		}
		if owner < 0 || owner >= s.P {
			return nil, fmt.Errorf("schedule %q: layer %d owned by out-of-range rank %d", s.Name, l, owner)
		}
		for t := 0; t < s.Tiles; t++ {
			b := Block{Tile: t}
			merged, _, err := mergeFrags(held[owner][b], []RankRange{{l, l + 1}})
			if err != nil {
				return nil, fmt.Errorf("schedule %q: staging layer %d at rank %d: %w", s.Name, l, owner, err)
			}
			held[owner][b] = merged
		}
	}

	halveAll := func() {
		for r := 0; r < s.P; r++ {
			next := make(map[Block][]RankRange, 2*len(held[r]))
			for b, frags := range held[r] {
				c0, c1 := b.Halves()
				next[c0] = cloneFrags(frags)
				next[c1] = cloneFrags(frags)
			}
			held[r] = next
		}
	}

	census := &Census{P: s.P, NPixels: npix, PerRank: make([][]RankStep, len(s.Steps))}
	for si, step := range s.Steps {
		census.PerRank[si] = make([]RankStep, s.P)
		for h := 0; h < step.PreHalvings; h++ {
			halveAll()
		}
		for _, tr := range step.Transfers {
			if tr.From < 0 || tr.From >= s.P || tr.To < 0 || tr.To >= s.P {
				return nil, fmt.Errorf("schedule %q step %d: transfer %v out of range", s.Name, si+1, tr)
			}
			if tr.From == tr.To {
				return nil, fmt.Errorf("schedule %q step %d: self-transfer %v", s.Name, si+1, tr)
			}
			frags, ok := held[tr.From][tr.Block]
			if !ok || len(frags) == 0 {
				return nil, fmt.Errorf("schedule %q step %d: rank %d sends block %v it does not hold",
					s.Name, si+1, tr.From, tr.Block)
			}
			span := tr.Block.Span(tiles)
			bytes := int64(len(frags)) * int64(span.Len()) * raster.BytesPerPixel
			census.PerRank[si][tr.From].MsgsSent++
			census.PerRank[si][tr.From].BytesSent += bytes
			census.PerRank[si][tr.To].BytesRecv += bytes
			delete(held[tr.From], tr.Block)

			merged, overs, err := mergeFrags(held[tr.To][tr.Block], frags)
			if err != nil {
				return nil, fmt.Errorf("schedule %q step %d: rank %d receiving %v: %w",
					s.Name, si+1, tr.To, tr.Block, err)
			}
			held[tr.To][tr.Block] = merged
			census.PerRank[si][tr.To].OverPixels += int64(overs) * int64(span.Len())
		}
		for h := 0; h < step.PostHalvings; h++ {
			halveAll()
		}
	}

	// Final invariant: every held block composited over all P layers, spans
	// partition the image, one holder per block.
	want := RankRange{0, s.P}
	var final []Holding
	for r := 0; r < s.P; r++ {
		for b, frags := range held[r] {
			if len(frags) == 0 {
				continue
			}
			if len(frags) != 1 || frags[0] != want {
				return nil, fmt.Errorf("schedule %q: rank %d ends with block %v composited over %v, want %v",
					s.Name, r, b, frags, want)
			}
			final = append(final, Holding{Rank: r, Block: b})
		}
	}
	sort.Slice(final, func(i, j int) bool {
		si, sj := final[i].Block.Span(tiles), final[j].Block.Span(tiles)
		return si.Lo < sj.Lo
	})
	at := 0
	for _, h := range final {
		sp := h.Block.Span(tiles)
		if sp.Lo != at {
			return nil, fmt.Errorf("schedule %q: final blocks leave gap or overlap at pixel %d (block %v spans %v)",
				s.Name, at, h.Block, sp)
		}
		at = sp.Hi
	}
	if at != npix {
		return nil, fmt.Errorf("schedule %q: final blocks cover %d of %d pixels", s.Name, at, npix)
	}
	census.Final = final
	return census, nil
}

func cloneFrags(f []RankRange) []RankRange {
	out := make([]RankRange, len(f))
	copy(out, f)
	return out
}

// mergeFrags merges incoming fragments into a fragment list, coalescing
// adjacent depth ranges. It returns the new list and the number of over
// operations (coalescings) performed, or an error if any two fragments
// overlap — which would composite some layer twice.
func mergeFrags(local, incoming []RankRange) ([]RankRange, int, error) {
	all := make([]RankRange, 0, len(local)+len(incoming))
	all = append(all, local...)
	all = append(all, incoming...)
	sort.Slice(all, func(i, j int) bool { return all[i].Lo < all[j].Lo })
	overs := 0
	out := all[:1]
	for _, f := range all[1:] {
		last := &out[len(out)-1]
		switch {
		case f.Lo < last.Hi:
			return nil, 0, fmt.Errorf("fragments %v and %v overlap", *last, f)
		case f.Lo == last.Hi:
			last.Hi = f.Hi
			overs++
		default:
			out = append(out, f)
		}
	}
	return out, overs, nil
}
