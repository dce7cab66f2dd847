// Configuration and tag space of the pipelined executor (pipeline.go),
// which runs a schedule's per-tile step sequences (schedule.TilePlans)
// concurrently: tile t's pipeline is exactly the synchronous step loop
// restricted to the transfers whose block lives in tile t.
package compositor

import "rtcomp/internal/raster"

// DefaultPipelineWindow is the in-flight tile window when
// PipelineConfig.Window is zero: enough tiles to keep render, encode and
// transfer overlapped without staging the whole frame at once.
const DefaultPipelineWindow = 4

// Source exposes an incrementally rendered local sub-image to the pipelined
// compositor, so composition of early tiles overlaps rendering of later
// ones. WaitTile blocks until the local pixels covering the tile's span are
// final; it is called from multiple worker goroutines and must be safe for
// concurrent use. A nil Source means the local image is already complete.
type Source interface {
	WaitTile(tile int, span raster.Span) error
}

// PartialFrame is one progressively delivered tile of the final image,
// passed to PipelineConfig.OnPartial on the gather root as the tile's last
// contribution arrives. Pix is borrowed from the frame under assembly and
// is only valid during the callback; Done counts tiles delivered so far
// (including this one) out of Total.
type PartialFrame struct {
	Tile  int
	Span  raster.Span
	Pix   []byte
	Done  int
	Total int
}

// PipelineConfig switches the compositor from the bulk-synchronous step
// loop to the per-tile pipeline and tunes its window. Enabled must be
// identical on every rank of a run (like the schedule and the codec): the
// pipelined gather is one message per tile, the synchronous one per rank.
type PipelineConfig struct {
	// Enabled selects the pipelined executor. The synchronous path remains
	// the default — and the differential oracle the pipelined output is
	// byte-compared against in the tests.
	Enabled bool
	// Window bounds how many tiles one rank advances concurrently. Zero
	// means DefaultPipelineWindow; negative means no bound (every tile in
	// flight at once). Values above the schedule's tile count are clamped.
	Window int
	// InterleaveSeed, when non-zero, puts a deterministic reordering stage
	// in every inbox of the run: the messages that have arrived for an
	// inbox's pending set are released in an order that is a pure function of
	// (seed, source, tag). The differential test harness sweeps seeds to
	// prove the output does not depend on delivery order. A tile worker
	// reorders its own tile's messages; the order across tiles is the
	// scheduler's. The stage lives in the one inbox every executor uses, so
	// a seed also permutes a synchronous run. Zero disables reordering.
	InterleaveSeed int64
	// Source gates each tile's staging on its pixels being rendered,
	// overlapping composition with rendering. Nil means the local image
	// passed to Run is already complete.
	Source Source
	// OnPartial, on the gather root, is called as each tile of the final
	// image completes — progressive frame delivery. Callbacks are monotone:
	// every completed tile is delivered exactly once, before Run returns.
	// Callbacks run on a dedicated delivery goroutine, never on a worker or
	// the gather, so a slow consumer cannot stall the frame (a consumer that
	// never returns stalls Run's return). Degraded tiles (missing
	// contributions under ComposePartial) are not delivered progressively;
	// they appear only in the final image.
	OnPartial func(PartialFrame)
}

// window resolves the configured in-flight window against a tile count.
func (cfg PipelineConfig) window(tiles int) int {
	w := cfg.Window
	if w == 0 {
		w = DefaultPipelineWindow
	}
	if w < 0 || w > tiles {
		w = tiles
	}
	if w < 1 {
		w = 1
	}
	return w
}

// The reserved pipelined-path tag, epoch-scoped like every other tag. Step
// tags always carry step+1 >= 1 in bits 40+, and the gather tag
// (tagGatherFinal) sets bit 39, so bit 38 is a free region below it.
const tagTileGatherBase = 1 << 38 // | tile: one completed tile's final blocks

// tileGatherTag addresses one completed tile's progressive gather message.
func tileGatherTag(epoch, tile int) int {
	return epoch<<56 | tagTileGatherBase | (tile & 0xFFFF)
}
