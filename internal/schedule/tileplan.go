package schedule

import (
	"fmt"
	"sync"

	"rtcomp/internal/raster"
)

// This file holds what the executors derive from a schedule and nothing
// else: the tile spans of an image, one rank's step sequence — whole, and
// split per tile — and the ranks left holding each tile. All are pure
// functions of the schedule (and the image size), every rank asks for them
// on every frame, and the block-flow simulation behind the holders costs P
// maps — so each is computed once per Schedule and shared. The results are
// read-only to callers.

// derived is a schedule's memo. It lives inside the Schedule, so a plan
// built by Repair (a new Schedule) starts with an empty one and Repair
// with no rank dead, which hands the original back, keeps the original's.
type derived struct {
	mu         sync.Mutex
	spans      []raster.Span // for an image of spansNPix pixels
	spansNPix  int
	plans      [][][]TileStep // [rank][tile], nil until that rank is asked for
	rankPlans  [][]TileStep   // [rank], nil until that rank is asked for
	holders    [][]int
	holdersErr error
	holdersSet bool
}

// TileSpans returns the initial tile spans for an image with npix pixels.
func (s *Schedule) TileSpans(npix int) []raster.Span {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if s.memo.spans == nil || s.memo.spansNPix != npix {
		s.memo.spans = raster.SplitSpan(raster.Span{Lo: 0, Hi: npix}, s.Tiles)
		s.memo.spansNPix = npix
	}
	return s.memo.spans
}

// TileStep is one rank's share of one schedule step — over every tile
// (RankPlan) or restricted to a single one (TilePlans): the halvings (which
// apply to whatever the executing store holds) plus the transfers the rank
// sends and receives, in schedule order.
type TileStep struct {
	Step  int // 0-based schedule step index
	Pre   int // halvings before the transfers
	Post  int // halvings after the transfers
	Sends []Transfer
	Recvs []Transfer
}

// TilePlans splits the schedule into per-tile step sequences for one rank.
// Blocks never change tile — Halves preserves the Tile coordinate and
// transfers address whole blocks — so executing plans[t] against a store
// staged with tile t alone performs exactly the tile-t portion of the
// synchronous step loop.
func (s *Schedule) TilePlans(rank int) [][]TileStep {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if s.memo.plans == nil {
		s.memo.plans = make([][][]TileStep, s.P)
	}
	if s.memo.plans[rank] == nil {
		s.memo.plans[rank] = s.tilePlans(rank)
	}
	return s.memo.plans[rank]
}

// RankPlan is one rank's whole step sequence across all tiles: plan[si]
// holds the halvings of step si and the transfers the rank sends and
// receives in it, so an executor staged with the whole image never scans
// the other ranks' transfers. Each step's sends (and receives) are the union
// of TilePlans(rank)[t][si] over the tiles, order within a tile preserved.
func (s *Schedule) RankPlan(rank int) []TileStep {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if s.memo.rankPlans == nil {
		s.memo.rankPlans = make([][]TileStep, s.P)
	}
	if s.memo.rankPlans[rank] == nil {
		plan := make([]TileStep, len(s.Steps))
		for si, step := range s.Steps {
			ts := &plan[si]
			*ts = TileStep{Step: si, Pre: step.PreHalvings, Post: step.PostHalvings}
			for _, tr := range step.Transfers {
				switch rank {
				case tr.From:
					ts.Sends = append(ts.Sends, tr)
				case tr.To:
					ts.Recvs = append(ts.Recvs, tr)
				}
			}
		}
		s.memo.rankPlans[rank] = plan
	}
	return s.memo.rankPlans[rank]
}

func (s *Schedule) tilePlans(rank int) [][]TileStep {
	steps := make([]TileStep, s.Tiles*len(s.Steps))
	plans := make([][]TileStep, s.Tiles)
	for t := range plans {
		plans[t], steps = steps[:len(s.Steps):len(s.Steps)], steps[len(s.Steps):]
		for si, step := range s.Steps {
			plans[t][si] = TileStep{Step: si, Pre: step.PreHalvings, Post: step.PostHalvings}
		}
	}
	for si, step := range s.Steps {
		for _, tr := range step.Transfers {
			if tr.Block.Tile < 0 || tr.Block.Tile >= s.Tiles {
				continue
			}
			ts := &plans[tr.Block.Tile][si]
			switch rank {
			case tr.From:
				ts.Sends = append(ts.Sends, tr)
			case tr.To:
				ts.Recvs = append(ts.Recvs, tr)
			}
		}
	}
	return plans
}

// FinalTileHolders simulates the schedule's block flow and reports, for
// every tile, the ascending set of ranks left holding at least one of its
// blocks when the schedule completes — the contributors a per-tile gather
// expects for that tile. The simulation mirrors the executor: a transfer
// moves the whole block from sender to receiver; halvings replace every held
// block by its two children.
func (s *Schedule) FinalTileHolders() ([][]int, error) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if !s.memo.holdersSet {
		s.memo.holders, s.memo.holdersErr = s.finalTileHolders()
		s.memo.holdersSet = true
	}
	return s.memo.holders, s.memo.holdersErr
}

func (s *Schedule) finalTileHolders() ([][]int, error) {
	held := make([]map[Block]bool, s.P)
	for r := range held {
		held[r] = make(map[Block]bool, s.Tiles)
		for t := 0; t < s.Tiles; t++ {
			held[r][Block{Tile: t}] = true
		}
	}
	halve := func(h map[Block]bool) map[Block]bool {
		next := make(map[Block]bool, 2*len(h))
		for b := range h {
			c0, c1 := b.Halves()
			next[c0], next[c1] = true, true
		}
		return next
	}
	for si, step := range s.Steps {
		for r := range held {
			for i := 0; i < step.PreHalvings; i++ {
				held[r] = halve(held[r])
			}
		}
		for _, tr := range step.Transfers {
			if !held[tr.From][tr.Block] {
				return nil, fmt.Errorf("schedule %q step %d: rank %d does not hold block %v",
					s.Name, si+1, tr.From, tr.Block)
			}
			delete(held[tr.From], tr.Block)
			held[tr.To][tr.Block] = true
		}
		for r := range held {
			for i := 0; i < step.PostHalvings; i++ {
				held[r] = halve(held[r])
			}
		}
	}
	holders := make([][]int, s.Tiles)
	for r, h := range held {
		seen := make([]bool, s.Tiles)
		for b := range h {
			if !seen[b.Tile] {
				seen[b.Tile] = true
				holders[b.Tile] = append(holders[b.Tile], r)
			}
		}
	}
	return holders, nil
}
