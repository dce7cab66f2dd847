// Package schedule represents image-composition communication schedules as
// data: who sends which block to whom at every step. Executing a schedule is
// the job of internal/compositor (real communicators) and internal/simnet
// (virtual-time cost simulation); this package only constructs and validates
// schedules.
//
// A schedule describes the composition of P depth-ordered partial images
// (rank 0 front-most) into one final image. The image is first cut into
// Tiles contiguous spans ("initial blocks" in the paper); blocks may then be
// halved between steps, so a block is addressed as (tile, level, index):
// tile's span bisected level times, taking the index-th piece.
package schedule

import (
	"fmt"
	"strings"

	"rtcomp/internal/raster"
)

// Block addresses one piece of the image: the Index-th part (of 2^Level) of
// tile Tile's span.
type Block struct {
	Tile  int
	Level int
	Index int
}

// String implements fmt.Stringer.
func (b Block) String() string { return fmt.Sprintf("t%d.L%d.%d", b.Tile, b.Level, b.Index) }

// Halves returns the two children of the block one level down.
func (b Block) Halves() (Block, Block) {
	return Block{b.Tile, b.Level + 1, 2 * b.Index},
		Block{b.Tile, b.Level + 1, 2*b.Index + 1}
}

// Span resolves the block to a pixel span, given the tile spans of the
// image (as produced by raster.SplitSpan on the full span).
func (b Block) Span(tiles []raster.Span) raster.Span {
	s := tiles[b.Tile]
	for l := b.Level - 1; l >= 0; l-- {
		a, c := s.Halves()
		if b.Index>>uint(l)&1 == 0 {
			s = a
		} else {
			s = c
		}
	}
	return s
}

// Transfer is one message: From ships everything it currently holds for
// Block to To and forgets the block.
type Transfer struct {
	From, To int
	Block    Block
}

// Step is one communication step of a schedule. PreHalvings counts how
// often every held block is halved before the step's transfers
// (binary-swap splits once and sends one half; radix-k with factor 2^j
// splits j times); PostHalvings halves after the transfers (rotate-tiling
// style).
type Step struct {
	PreHalvings  int
	PostHalvings int
	Transfers    []Transfer
}

// Schedule is a full composition plan for P ranks. Build it completely
// before handing it to an executor: what the executors derive from it
// (tileplan.go) is computed on first use and kept, so a schedule is
// immutable from then on and must be passed by pointer.
type Schedule struct {
	Name  string
	P     int
	Tiles int // initial blocks per sub-image (the paper's N)
	Steps []Step

	memo derived
}

// NumSteps reports the number of communication steps.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// ToDOT renders the schedule's communication pattern as a Graphviz
// digraph: one subgraph per step, nodes P<r>@<step>, one edge per
// transfer labelled with its block. Feed the output to `dot -Tsvg` to
// visualise a method's traffic.
func (s *Schedule) ToDOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", s.Name)
	for si, step := range s.Steps {
		fmt.Fprintf(&b, "  subgraph cluster_step%d {\n    label=\"step %d\";\n", si+1, si+1)
		seen := map[int]bool{}
		for _, tr := range step.Transfers {
			seen[tr.From] = true
			seen[tr.To] = true
		}
		for r := 0; r < s.P; r++ {
			if seen[r] {
				fmt.Fprintf(&b, "    \"P%d@%d\" [label=\"P%d\"];\n", r, si+1, r)
			}
		}
		for _, tr := range step.Transfers {
			fmt.Fprintf(&b, "    \"P%d@%d\" -> \"P%d@%d\" [label=%q, fontsize=8];\n",
				tr.From, si+1, tr.To, si+1, tr.Block.String())
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// CeilLog2 returns ceil(log2(p)) with CeilLog2(1) == 0.
func CeilLog2(p int) int {
	if p < 1 {
		panic("schedule: CeilLog2 of non-positive value")
	}
	s := 0
	for v := 1; v < p; v <<= 1 {
		s++
	}
	return s
}

// IsPowerOfTwo reports whether p is a positive power of two.
func IsPowerOfTwo(p int) bool { return p > 0 && p&(p-1) == 0 }

// RankRange is a half-open interval [Lo, Hi) of rank numbers whose layers
// have been composited together, in depth order.
type RankRange struct {
	Lo, Hi int
}

// Len reports the number of ranks covered.
func (r RankRange) Len() int { return r.Hi - r.Lo }

// String implements fmt.Stringer.
func (r RankRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }
