package trace

import (
	"fmt"
	"os"
	"strings"

	"rtcomp/internal/telemetry"
)

// RankedPath inserts a rank suffix before the extension, so per-rank trace
// files sharing one base name do not clobber each other:
// trace.json -> trace-r03.json.
func RankedPath(base string, rank int) string {
	stem, ext := base, ""
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		stem, ext = base[:i], base[i:]
	}
	return fmt.Sprintf("%s-r%02d%s", stem, rank, ext)
}

// WriteFile writes the recorder's spans and causal flow edges to path as
// Chrome trace-event JSON (WriteChromeSpansFlows) — every rank's when rank
// is negative, otherwise only that rank's, the per-rank input of an rttrace
// merge. It reports how many spans and flow events the file holds.
func WriteFile(path string, rec *telemetry.Recorder, rank int) (spans, flows int, err error) {
	ss, fs := rec.Spans(), rec.Flows()
	if rank >= 0 {
		var rs []telemetry.Span
		for _, s := range ss {
			if s.Rank == rank {
				rs = append(rs, s)
			}
		}
		var rf []telemetry.Flow
		for _, f := range fs {
			if f.Rank == rank {
				rf = append(rf, f)
			}
		}
		ss, fs = rs, rf
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	err = WriteChromeSpansFlows(f, ss, fs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(ss), len(fs), err
}
