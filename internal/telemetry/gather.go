package telemetry

import (
	"encoding/json"
	"fmt"
	"time"

	"rtcomp/internal/comm"
)

// GatherSummaries ships every rank's summary to root over the communicator
// (one comm.GatherTimeout of JSON blobs — small, a few hundred bytes per
// rank) and returns the per-rank summaries on root, nil elsewhere. Every
// rank must call it at the same point of its program, like any collective.
//
// The timeout bounds the root's wait per arrival (<= 0 waits forever).
// When ranks are unreachable — dead peers in a recovered run — the root
// returns the partial table (missing ranks hold their zero Summary)
// alongside the first recoverable error, so a teardown path can report the
// survivors instead of hanging.
func GatherSummaries(c comm.Comm, seq *comm.Sequencer, root int, s Summary, timeout time.Duration) ([]Summary, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal summary: %w", err)
	}
	parts, gerr := comm.GatherTimeout(c, seq, root, blob, timeout)
	if gerr != nil && !comm.IsRecoverable(gerr) {
		return nil, fmt.Errorf("telemetry: gather summaries: %w", gerr)
	}
	if parts == nil {
		return nil, gerr
	}
	out := make([]Summary, len(parts))
	for r, part := range parts {
		if part == nil {
			// This rank never delivered its summary; leave the zero value.
			continue
		}
		if err := json.Unmarshal(part, &out[r]); err != nil {
			return nil, fmt.Errorf("telemetry: summary from rank %d: %w", r, err)
		}
	}
	return out, gerr
}
