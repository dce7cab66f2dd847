package schedule

import (
	"fmt"
	"sort"
)

// This file plans composition schedules over a degraded mesh: given the set
// of dead ranks, Repair produces a schedule that composites every layer that
// is still reachable — each dead rank's layer contributed by its buddy,
// which rebuilds it — using only surviving ranks.
//
// The repaired plan is a per-tile binary merge tree over the full depth
// range [0, P). Split points are aligned to even layer indices so an
// XOR-buddy pair {2k, 2k+1} never straddles a split: the pair's surviving
// member holds both layers pre-composited, and the tree above only ever
// merges depth-contiguous holdings. Every transfer ships the whole tile
// (Block{Tile: t}) — the executor's Take ships all fragments of a block, so
// a sender's entire holding for the tile moves at once.

// Buddy returns the deterministic stand-in of rank r in a p-rank mesh, the
// rank that contributes r's layer once r is dead: rank XOR 1, falling back
// to (r + p/2) mod p when the XOR partner does not exist (the last rank of
// an odd mesh). Buddy(r, 1) is r itself — a single-rank mesh has nobody to
// stand in.
func Buddy(r, p int) int {
	if p <= 1 {
		return r
	}
	if b := r ^ 1; b < p {
		return b
	}
	return (r + p/2) % p
}

// RepairOwners maps each layer to the surviving rank that contributes it:
// the rank itself if alive, else its buddy if the buddy is alive, else -1
// (the layer is unrecoverable — both are gone). recoverable reports whether
// every layer has a surviving owner.
func RepairOwners(p int, dead []int) (owners []int, recoverable bool) {
	isDead := make([]bool, p)
	for _, d := range dead {
		if d >= 0 && d < p {
			isDead[d] = true
		}
	}
	owners = make([]int, p)
	recoverable = true
	for l := 0; l < p; l++ {
		switch {
		case !isDead[l]:
			owners[l] = l
		case !isDead[Buddy(l, p)]:
			owners[l] = Buddy(l, p)
		default:
			owners[l] = -1
			recoverable = false
		}
	}
	return owners, recoverable
}

// Restore re-plans after the mesh healed: with no ranks still dead the
// original schedule comes back verbatim with a nil owner map (every layer
// staged at its own rank) — the merge tree reverts to its pre-failure shape,
// which is what makes a post-rejoin frame byte-identical to the fault-free
// run. Any ranks still dead go through Repair as usual.
func Restore(s *Schedule, stillDead []int) (*Schedule, []int, error) {
	if len(stillDead) == 0 {
		return s, nil, nil
	}
	return Repair(s, stillDead)
}

// Repair re-plans the composition over the survivors of s.P ranks after the
// given ranks died. The returned owners slice (length P) maps each layer to
// the rank staging it (-1 = unrecoverable, left absent; the caller decides
// whether that is acceptable). The plan is validated symbolically before it
// is returned, so a schedule that would not composite cleanly never reaches
// the executor.
func Repair(s *Schedule, dead []int) (*Schedule, []int, error) {
	p := s.P
	for _, d := range dead {
		if d < 0 || d >= p {
			return nil, nil, fmt.Errorf("schedule: repair: dead rank %d out of range [0,%d)", d, p)
		}
	}
	owners, _ := RepairOwners(p, dead)
	isDead := make([]bool, p)
	for _, d := range dead {
		isDead[d] = true
	}
	nlive := 0
	for r := 0; r < p; r++ {
		if !isDead[r] {
			nlive++
		}
	}
	if nlive == 0 {
		return nil, nil, fmt.Errorf("schedule: repair: no surviving ranks")
	}
	// More tiles than the original schedule spreads the final blocks across
	// survivors (binary-swap starts from one tile, which would funnel the
	// whole image through a single keeper).
	tiles := s.Tiles
	if tiles < nlive {
		tiles = nlive
	}

	height := CeilLog2(p)
	steps := make([]Step, height)
	kept := make([]int, p) // contested merges won, for load balancing
	for t := 0; t < tiles; t++ {
		if err := repairTile(t, p, owners, steps, kept); err != nil {
			return nil, nil, err
		}
	}
	out := &Schedule{Name: s.Name + "+repair", P: p, Tiles: tiles}
	for _, st := range steps {
		if len(st.Transfers) > 0 {
			out.Steps = append(out.Steps, st)
		}
	}
	if _, err := ValidateFrom(out, 4*tiles, owners); err != nil {
		return nil, nil, fmt.Errorf("schedule: repaired plan failed validation: %w", err)
	}
	return out, owners, nil
}

// ownedRun is a depth-contiguous interval of layers held (pre-composited)
// by one rank during the repair planning simulation.
type ownedRun struct {
	lo, hi, owner int
}

// repairTile plans one tile's merge tree, appending transfers to steps.
func repairTile(t, p int, owners []int, steps []Step, kept []int) error {
	var cover []ownedRun
	for l := 0; l < p; l++ {
		if owners[l] >= 0 {
			cover = append(cover, ownedRun{l, l + 1, owners[l]})
		}
	}
	cover = coalesceRuns(cover)
	block := Block{Tile: t}

	var walk func(lo, hi, h int) error
	walk = func(lo, hi, h int) error {
		if hi-lo <= 1 {
			return nil
		}
		mid := lo + repairSplit(hi-lo, h)
		if err := walk(lo, mid, h-1); err != nil {
			return err
		}
		if err := walk(mid, hi, h-1); err != nil {
			return err
		}
		// Merge the node: every holder with runs inside [lo,hi) ships its
		// whole tile holding to one keeper.
		holders := map[int]bool{}
		for _, c := range cover {
			if c.lo < hi && c.hi > lo {
				holders[c.owner] = true
			}
		}
		if len(holders) <= 1 {
			return nil
		}
		// A holder whose tile holdings extend outside the node must keep:
		// its send would drag unrelated depth ranges along (Take ships the
		// whole block). At most one such holder can exist — only the
		// odd-mesh fallback ward holds non-pair-local layers.
		keeper, external := -1, -1
		for r := range holders {
			for _, c := range cover {
				if c.owner == r && (c.lo < lo || c.hi > hi) {
					if external >= 0 && external != r {
						return fmt.Errorf("schedule: repair: two holders (%d, %d) span node [%d,%d)", external, r, lo, hi)
					}
					external = r
				}
			}
		}
		if external >= 0 {
			keeper = external
		} else {
			for r := range holders {
				if keeper < 0 || kept[r] < kept[keeper] || (kept[r] == kept[keeper] && r < keeper) {
					keeper = r
				}
			}
		}
		kept[keeper]++
		for r := range holders {
			if r == keeper {
				continue
			}
			steps[h-1].Transfers = append(steps[h-1].Transfers, Transfer{From: r, To: keeper, Block: block})
			for i := range cover {
				if cover[i].owner == r {
					cover[i].owner = keeper
				}
			}
		}
		cover = coalesceRuns(cover)
		return nil
	}
	return walk(0, p, CeilLog2(p))
}

// repairSplit returns the left-child size for a node of s layers with a
// height budget of h halvings: half the node rounded up to an even count
// (so XOR pairs never straddle), capped at 2^(h-1) so the subtree fits its
// budget. A node of exactly two layers splits into its two single layers.
func repairSplit(s, h int) int {
	if s == 2 {
		return 1
	}
	half := (s + 1) / 2
	if half%2 == 1 {
		half++
	}
	if cap := 1 << (h - 1); half > cap {
		half = cap
	}
	return half
}

// coalesceRuns sorts runs by depth and fuses adjacent runs with the same
// owner — the planning mirror of the executor's fragment coalescing.
func coalesceRuns(runs []ownedRun) []ownedRun {
	if len(runs) == 0 {
		return runs
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].lo < runs[j].lo })
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.lo == last.hi && r.owner == last.owner {
			last.hi = r.hi
		} else {
			out = append(out, r)
		}
	}
	return out
}
