// The flight recorder: a fixed-size ring of recent structured events —
// frame sends and receives, session reconnects, tile state transitions,
// recovery epochs, stalls — appended from the hot paths at the cost
// of one short mutex hold and a struct copy (zero allocations), and dumped
// in causal (sequence) order when something goes wrong: a FailFast stall, a
// SIGQUIT, a panic, or a recovery trigger. It is the post-mortem black box
// of a chaos run: the table and the trace say what the run looked like, the
// flight dump says what the last milliseconds did.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// FlightCap is the ring capacity: enough to hold the closing window of a
// multi-rank pipelined step without measurable memory cost.
const FlightCap = 512

// FlightKind classifies one flight-recorder event.
type FlightKind uint8

const (
	FlightSend        FlightKind = iota + 1 // a message handed to the fabric
	FlightRecv                              // a message consumed from the fabric
	FlightReconnect                         // a session resumed on a fresh connection
	FlightSessionDown                       // a session failed past recovery
	FlightTile                              // a pipelined tile state transition
	FlightEpoch                             // a recovery epoch transition
	FlightStall                             // a stall/deadline diagnosis
	FlightGray                              // a peer-health transition (gray, recovered, escalated)
	FlightAdmit                             // an admission-control decision (shed, queued, admitted)
	FlightJoin                              // a spare rejoin event (hello, admit, transfer, revive, timeout)
)

// String names the kind for dumps.
func (k FlightKind) String() string {
	switch k {
	case FlightSend:
		return "send"
	case FlightRecv:
		return "recv"
	case FlightReconnect:
		return "reconnect"
	case FlightSessionDown:
		return "session-down"
	case FlightTile:
		return "tile"
	case FlightEpoch:
		return "epoch"
	case FlightStall:
		return "stall"
	case FlightGray:
		return "gray"
	case FlightAdmit:
		return "admit"
	case FlightJoin:
		return "join"
	default:
		return "unknown"
	}
}

// FlightEvent is one recorded event. Note must be a constant (or otherwise
// long-lived) string: the recorder stores it without copying.
type FlightEvent struct {
	Seq  uint64        // global append order — the causal order of the dump
	T    time.Duration // since the recorder epoch
	Rank int
	Kind FlightKind
	Step int // 0-based step, or StepNone
	Tile int // tile index, or -1
	Peer int // peer rank, or -1
	Note string
}

// flightRing is the fixed-capacity event ring.
type flightRing struct {
	mu  sync.Mutex
	seq uint64
	buf [FlightCap]FlightEvent
}

// Flight appends one event to the ring. Nil-safe and allocation-free.
func (r *Recorder) Flight(rank int, kind FlightKind, step, tile, peer int, note string) {
	if r == nil {
		return
	}
	t := time.Since(r.epoch)
	fr := &r.flight
	fr.mu.Lock()
	fr.buf[fr.seq%FlightCap] = FlightEvent{
		Seq: fr.seq, T: t, Rank: rank, Kind: kind,
		Step: step, Tile: tile, Peer: peer, Note: note,
	}
	fr.seq++
	fr.mu.Unlock()
}

// FlightEvents returns the ring's surviving events oldest-first.
func (r *Recorder) FlightEvents() []FlightEvent {
	if r == nil {
		return nil
	}
	fr := &r.flight
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := fr.seq
	if n > FlightCap {
		n = FlightCap
	}
	out := make([]FlightEvent, 0, n)
	start := uint64(0)
	if fr.seq > FlightCap {
		start = fr.seq - FlightCap
	}
	for s := start; s < fr.seq; s++ {
		out = append(out, fr.buf[s%FlightCap])
	}
	return out
}

// FlightDump renders the ring as the post-mortem text block: one line per
// event in causal order, with a header noting how much history survived.
func (r *Recorder) FlightDump() string {
	events := r.FlightEvents()
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	total := events[len(events)-1].Seq + 1
	fmt.Fprintf(&b, "flight recorder: last %d of %d event(s):\n", len(events), total)
	for _, e := range events {
		writeFlightLine(&b, e)
	}
	return strings.TrimRight(b.String(), "\n")
}

// WriteFlight writes the dump (with a trailing newline) to w — the SIGQUIT
// and panic hooks' sink.
func (r *Recorder) WriteFlight(w io.Writer) error {
	d := r.FlightDump()
	if d == "" {
		_, err := io.WriteString(w, "flight recorder: no events recorded\n")
		return err
	}
	_, err := io.WriteString(w, d+"\n")
	return err
}

// DumpFlightOnPanic is a deferred panic hook: it writes the flight dump to
// w before re-panicking, so a crash carries its black box. Use as
//
//	defer rec.DumpFlightOnPanic(os.Stderr)
func (r *Recorder) DumpFlightOnPanic(w io.Writer) {
	if p := recover(); p != nil {
		fmt.Fprintf(w, "panic: %v\n", p)
		if r != nil {
			_ = r.WriteFlight(w)
		}
		panic(p)
	}
}

func writeFlightLine(b *strings.Builder, e FlightEvent) {
	fmt.Fprintf(b, "  #%d %10.3fms r%d %-12s", e.Seq, float64(e.T)/1e6, e.Rank, e.Kind)
	if e.Step != StepNone {
		fmt.Fprintf(b, " step=%d", e.Step)
	}
	if e.Tile >= 0 {
		fmt.Fprintf(b, " tile=%d", e.Tile)
	}
	if e.Peer >= 0 {
		fmt.Fprintf(b, " peer=%d", e.Peer)
	}
	if e.Note != "" {
		fmt.Fprintf(b, " %s", e.Note)
	}
	b.WriteByte('\n')
}
