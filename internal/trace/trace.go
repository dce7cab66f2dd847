// Package trace renders the simulator's engine-occupancy events as ASCII
// Gantt charts: one row per rank, time on the horizontal axis, showing
// where each composition method spends its time — transmission, compute,
// or idle. The charts make the overlap argument of the rotate-tiling
// method visible: coarse-block methods leave idle gaps that fine-block
// pipelining fills.
//
// The package also exports real runs: telemetry spans and causal message
// flows as Chrome trace-event JSON, written to one file per run or per
// rank (WriteFile, RankedPath), and merged back across ranks with a
// critical path (MergeFiles).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rtcomp/internal/simnet"
)

// Cell glyphs of the Gantt rendering.
const (
	glyphIdle    = '.'
	glyphSend    = '-'
	glyphCompute = '#'
	glyphBoth    = '%'
)

// Gantt renders the events of a simulation as one timeline row per rank,
// quantised into width buckets over [0, horizon]. A bucket shows '#' when
// the rank computed in it, '-' when it transmitted, '%' for both and '.'
// for idle. A zero horizon uses the last event end.
func Gantt(events []simnet.Event, p int, width int, horizon float64) string {
	if width < 8 {
		width = 8
	}
	if horizon <= 0 {
		for _, e := range events {
			if e.T1 > horizon {
				horizon = e.T1
			}
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	// occupancy[rank][bucket] bitmask: 1 = send, 2 = compute.
	occ := make([][]uint8, p)
	for r := range occ {
		occ[r] = make([]uint8, width)
	}
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= p {
			continue
		}
		var mask uint8 = 1
		if e.Kind == simnet.EventCompute {
			mask = 2
		}
		b0 := int(e.T0 / horizon * float64(width))
		b1 := int(e.T1 / horizon * float64(width))
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1 && b >= 0; b++ {
			occ[e.Rank][b] |= mask
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time 0 %s %s  (%c send, %c compute, %c both, %c idle)\n",
		strings.Repeat(" ", maxInt(width-16, 1)), formatSeconds(horizon),
		glyphSend, glyphCompute, glyphBoth, glyphIdle)
	for r := 0; r < p; r++ {
		fmt.Fprintf(&sb, "P%-3d ", r)
		for _, m := range occ[r] {
			switch m {
			case 0:
				sb.WriteRune(glyphIdle)
			case 1:
				sb.WriteRune(glyphSend)
			case 2:
				sb.WriteRune(glyphCompute)
			default:
				sb.WriteRune(glyphBoth)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Utilisation reports the fraction of the composition span each rank spent
// busy (send or compute), averaged over ranks — the scheduling-quality
// number behind the Gantt picture.
func Utilisation(events []simnet.Event, p int, horizon float64) float64 {
	if horizon <= 0 {
		for _, e := range events {
			if e.T1 > horizon {
				horizon = e.T1
			}
		}
	}
	if horizon <= 0 || p == 0 {
		return 0
	}
	// Merge each rank's busy intervals.
	type span struct{ t0, t1 float64 }
	perRank := make([][]span, p)
	for _, e := range events {
		if e.Rank >= 0 && e.Rank < p {
			perRank[e.Rank] = append(perRank[e.Rank], span{e.T0, e.T1})
		}
	}
	total := 0.0
	for _, spans := range perRank {
		// Insertion-sort by start (few events per rank).
		for i := 1; i < len(spans); i++ {
			for j := i; j > 0 && spans[j].t0 < spans[j-1].t0; j-- {
				spans[j], spans[j-1] = spans[j-1], spans[j]
			}
		}
		busy, end := 0.0, 0.0
		for _, s := range spans {
			if s.t1 <= end {
				continue
			}
			t0 := s.t0
			if t0 < end {
				t0 = end
			}
			busy += s.t1 - t0
			end = s.t1
		}
		total += busy / horizon
	}
	return total / float64(p)
}

// chromeEvent is one event of the Chrome trace-event format, loadable in
// chrome://tracing and Perfetto: complete spans ("ph":"X") and causal flow
// endpoints ("ph":"s" at the send, "ph":"f" at the receive). ID and BP are
// set only on flow events and omitted from span serialization, so span
// output is byte-identical to the pre-flow exporter.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id,omitempty"` // flow identifier, shared by the "s"/"f" pair
	BP   string            `json:"bp,omitempty"` // flow binding point: "e" binds "f" to its enclosing span
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace exports the events as a Chrome trace-event JSON array:
// one process per rank, thread 0 = network-out engine, thread 1 = compute
// engine. Open the file in chrome://tracing or ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []simnet.Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		name, cat, tid := "send", "network", 0
		if e.Kind == simnet.EventCompute {
			name, cat, tid = "compute", "compute", 1
		}
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("%s %v", name, e.Block),
			Cat:  cat,
			Ph:   "X",
			TS:   e.T0 * 1e6,
			Dur:  (e.T1 - e.T0) * 1e6,
			PID:  e.Rank,
			TID:  tid,
			Args: map[string]string{"step": fmt.Sprint(e.Step + 1)},
		})
	}
	return writeChromeEvents(w, out)
}

// writeChromeEvents encodes a trace-event array — the shared tail of the
// simulated (WriteChromeTrace) and real-run (WriteChromeSpans) exporters.
func writeChromeEvents(w io.Writer, events []chromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

func formatSeconds(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.1fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
