package schedule

import "fmt"

// This file plans composition schedules over a degraded mesh: given the set
// of dead ranks, Repair produces a schedule that composites every layer
// using only surviving ranks. Every rank holds the input of every layer, so
// any survivor can rebuild a dead one; the nearest live rank in front of a
// dead layer in depth order does, and layers in front of the first live
// rank go to that rank. Every survivor then holds one depth-contiguous run
// of layers, and each tile is a balanced binary merge over the survivors in
// depth order. Every transfer ships the whole tile (Block{Tile: t}) — the
// executor's Take ships all fragments of a block, so a sender's entire
// holding for the tile moves at once.

// Repair re-plans the composition over the survivors of s.P ranks after the
// given ranks died. With no rank dead it returns s itself and nil owners:
// the healed mesh composites over the original schedule, and a plan derived
// from it keeps its memo. Otherwise the returned owners slice (length P)
// maps each layer to the survivor staging it. The plan is validated
// symbolically before it is returned, so a schedule that would not
// composite cleanly never reaches the executor.
func Repair(s *Schedule, dead []int) (*Schedule, []int, error) {
	if len(dead) == 0 {
		return s, nil, nil
	}
	p := s.P
	isDead := make([]bool, p)
	for _, d := range dead {
		if d < 0 || d >= p {
			return nil, nil, fmt.Errorf("schedule: repair: dead rank %d out of range [0,%d)", d, p)
		}
		isDead[d] = true
	}
	var live []int
	for r := 0; r < p; r++ {
		if !isDead[r] {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil, nil, fmt.Errorf("schedule: repair: no surviving ranks")
	}
	owners := make([]int, p)
	for l, o := 0, live[0]; l < p; l++ {
		if !isDead[l] {
			o = l
		}
		owners[l] = o
	}
	// More tiles than the original schedule spreads the final blocks across
	// survivors (binary-swap starts from one tile, which would funnel the
	// whole image through a single keeper).
	tiles := max(s.Tiles, len(live))
	out := &Schedule{Name: s.Name + "+repair", P: p, Tiles: tiles}
	kept := make([]int, p) // merges kept so far, for load balancing
	group := make([]int, len(live))
	for t := 0; t < tiles; t++ {
		// Each level merges adjacent holders pairwise; an odd one out is
		// carried up to the next level unchanged.
		group = append(group[:0], live...)
		for si := 0; len(group) > 1; si++ {
			if si == len(out.Steps) {
				out.Steps = append(out.Steps, Step{})
			}
			n := 0
			for i := 0; i+1 < len(group); i += 2 {
				keep, send := group[i], group[i+1]
				if kept[send] < kept[keep] {
					keep, send = send, keep
				}
				kept[keep]++
				out.Steps[si].Transfers = append(out.Steps[si].Transfers, Transfer{From: send, To: keep, Block: Block{Tile: t}})
				group[n] = keep
				n++
			}
			if len(group)%2 == 1 {
				group[n] = group[len(group)-1]
				n++
			}
			group = group[:n]
		}
	}
	if _, err := ValidateFrom(out, 4*tiles, owners); err != nil {
		return nil, nil, fmt.Errorf("schedule: repaired plan failed validation: %w", err)
	}
	return out, owners, nil
}
