// Package telemetry is the runtime observability substrate of the real
// composition pipeline: a lightweight, concurrency-safe span recorder and
// counter registry shared by the compositor, the transports and the
// binaries. A nil *Recorder disables recording everywhere — every method is
// nil-receiver safe — so the hot path pays a single pointer test when
// observability is off.
//
// Spans carry (rank, phase, category, step) plus timestamps relative to the
// recorder epoch; internal/trace renders them as Chrome trace-event JSON
// (chrome://tracing, Perfetto) or as ASCII Gantt charts. Counters carry
// (rank, step, name) so per-step byte and message tallies can be aggregated
// across ranks at rank 0 (see Summary, StepTable, GatherSummaries) and
// exported live in Prometheus text format (see WriteMetrics and Mux).
//
// Instrumented code opens a span with Begin and records it with End:
//
//	defer tel.End(tel.Begin(rank, PhaseMerge, CatCompute, step))
//
// The open span is a SpanStart value, so the pair allocates nothing. Span is
// the same pair as a closure, end := tel.Span(...); end(), for a caller that
// wants a function value; the closure costs an allocation per span.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Span categories, mapped to trace rows: network spans share a rank's
// network engine row, compute spans its compute engine row.
const (
	CatNetwork = "network"
	CatCompute = "compute"
)

// Phase names of the instrumented pipeline. Step-scoped phases carry the
// 0-based composition step; whole-run phases use StepNone.
const (
	PhaseRender = "render" // shear-warp rendering of the local partial
	PhaseEncode = "encode" // wire-codec compression of outgoing blocks
	PhaseSend   = "send"   // handing frames to the fabric
	PhaseRecv   = "recv"   // waiting for + receiving inbound blocks
	PhaseDecode = "decode" // wire-codec decompression of inbound blocks
	PhaseMerge  = "merge"  // depth-ordered over-compositing
	PhaseGather = "gather" // final-block gather to the root
	PhaseWarp   = "warp"   // final image warp on the root

	PhaseReplicate = "replicate" // buddy replication exchange before step 1
	PhaseAgree     = "agree"     // membership agreement rounds
	PhaseRecover   = "recover"   // a recovery re-execution epoch
	PhaseJoin      = "join"      // spare rejoin: hello drain, join agreement, admission
	PhaseXfer      = "xfer"      // merkle-verified state transfer (stream or verify side)
	PhaseScrub     = "scrub"     // replica scrub-and-repair exchange

	// PhaseTile is one tile's full pipelined state machine (stage through
	// gather) on one rank; the span's step field carries the tile index, so
	// a trace shows which tiles were in flight concurrently — and whether
	// composition overlapped the render spans.
	PhaseTile = "tile"
)

// Counter names recorded by the instrumented pipeline.
const (
	CtrMsgs             = "msgs"              // block messages sent (per step)
	CtrRawBytes         = "raw_bytes"         // payload bytes before compression (per step)
	CtrWireBytes        = "wire_bytes"        // payload bytes after compression (per step)
	CtrOverPixels       = "over_pixels"       // pixels through the over kernel (per step; replica staging at StepNone)
	CtrDeadlineHits     = "deadline_hits"     // receives that hit their deadline
	CtrMissingTransfers = "missing_transfers" // scheduled messages that never arrived
	CtrCommMsgsSent     = "comm_msgs_sent"    // fabric totals, from comm.Counters
	CtrCommBytesSent    = "comm_bytes_sent"
	CtrCommMsgsRecv     = "comm_msgs_recv"
	CtrCommBytesRecv    = "comm_bytes_recv"
	CtrRetransmissions  = "retransmissions" // fault-injection resend attempts
	CtrMsgsLost         = "msgs_lost"       // messages lost after exhausting resends
	CtrCRCRejects       = "crc_rejects"     // inbound frames discarded by checksum
	CtrCorruptInjected  = "corrupt_injected"
	CtrDialAttempts     = "tcp_dial_attempts" // mesh setup dials (incl. retries)
	CtrPeerFailures     = "tcp_peer_failures" // connections poisoned mid-run

	CtrReconnects       = "reconnects"         // sessions transparently re-established mid-run
	CtrReplayedFrames   = "replayed_frames"    // unacked data frames retransmitted after a resume
	CtrDupFramesDropped = "dup_frames_dropped" // replayed frames already delivered, dropped by the dedup window
	CtrAcksSent         = "acks_sent"          // standalone cumulative-ack frames written
	CtrHeartbeats       = "heartbeats"         // idle-link heartbeat frames written

	CtrReplicaMsgs      = "replica_msgs"       // buddy replica messages sent
	CtrReplicaRawBytes  = "replica_raw_bytes"  // replica payload bytes before compression
	CtrReplicaWireBytes = "replica_wire_bytes" // replica payload bytes after compression
	CtrFailNotices      = "fail_notices"       // FAILED notices broadcast by this rank
	CtrRecoveryEpochs   = "recovery_epochs"    // composition epochs re-executed after agreement
	CtrRecoveredRanks   = "recovered_ranks"    // dead ranks whose layers were recovered from replicas

	CtrRejoins              = "rejoins"                // spare ranks revived into the mesh
	CtrRejoinVerifiedChunks = "rejoin_verified_chunks" // state-transfer chunks verified against the certified root
	CtrRejoinRejectedChunks = "rejoin_rejected_chunks" // state-transfer chunks rejected (corrupt or stale)
	CtrScrubOK              = "scrub_ok"               // replica scrubs that matched their fingerprint
	CtrScrubRepaired        = "scrub_repaired"         // corrupt replicas repaired from the live copy
	CtrScrubFailed          = "scrub_failed"           // corrupt replicas whose repair also failed

	CtrTilesDone       = "tiles_done"        // pipelined tiles fully processed on this rank
	CtrPipeInflightMax = "pipe_inflight_max" // peak tiles simultaneously in flight on this rank
	CtrPartialTiles    = "partial_tiles"     // completed tiles delivered progressively at the root

	CtrDeadlineGrace     = "deadline_grace"     // receive deadlines extended by the health gate (brownout, not death)
	CtrPeerGray          = "peer_gray"          // peers whose health score crossed the gray threshold
	CtrHealthEscalations = "health_escalations" // gray peers escalated to the failure-agreement path

	CtrReqAdmitted = "requests_admitted" // render requests that acquired a slot
	CtrReqShed     = "requests_shed"     // render requests rejected by admission control
	CtrReqQueued   = "requests_queued"   // admitted requests that waited in the admission queue
)

// StepNone marks a span or counter that is not scoped to a composition step
// (render, warp, gather, run-level counters).
const StepNone = -1

// Span is one recorded phase execution on one rank.
type Span struct {
	Rank  int
	Name  string // a Phase* constant (or any caller-chosen label)
	Cat   string // CatNetwork or CatCompute
	Step  int    // 0-based composition step, or StepNone
	Start time.Duration
	End   time.Duration
}

// CounterKey identifies one counter cell.
type CounterKey struct {
	Rank int
	Step int // 0-based composition step, or StepNone
	Name string
}

// Recorder collects spans and counters from any number of goroutines. The
// zero value is not usable; construct with New. All methods are safe on a
// nil receiver (they do nothing), which is how instrumented code runs with
// telemetry disabled.
type Recorder struct {
	epoch time.Time
	// totalsOnly drops the span and flow history (see NewTotals).
	totalsOnly bool

	mu       sync.Mutex
	spans    []Span
	counters map[CounterKey]int64
	flows    []Flow
	hists    map[HistKey]*Histogram
	// phases are the histograms Span feeds, one per (rank, phase): the
	// subset of hists whose Count and Sum are span totals.
	phases map[HistKey]*Histogram

	flight flightRing
}

// New returns an empty recorder whose span clock starts now. It keeps every
// span and flow point until it is dropped — what a one-shot tool exporting a
// Chrome trace or a per-step table wants.
func New() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[CounterKey]int64),
		hists:    make(map[HistKey]*Histogram),
		phases:   make(map[HistKey]*Histogram),
	}
}

// NewTotals returns a recorder for a process that records for as long as it
// runs (rtserve): counters, histograms, per-phase span totals and the flight
// ring are kept — everything /metrics, /debug/vars and /debug/flight serve —
// but no span or flow history, so its memory does not grow with the frames
// served. Spans, Flows and the per-step phase rows of Summary are empty.
func NewTotals() *Recorder {
	r := New()
	r.totalsOnly = true
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Epoch is the instant span timestamps are relative to.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// SpanStart is an open span: what Begin returns and End records. It is a
// value, so opening and closing a span allocates nothing.
type SpanStart struct {
	rank, step int
	name, cat  string
	start      time.Duration
}

// Begin opens a span now. Hand the result to End on the same recorder,
// exactly once, to record it: defer tel.End(tel.Begin(rank, name, cat, step)).
func (r *Recorder) Begin(rank int, name, cat string, step int) SpanStart {
	if r == nil {
		return SpanStart{}
	}
	return SpanStart{rank: rank, step: step, name: name, cat: cat, start: time.Since(r.epoch)}
}

// End closes a span Begin opened and records it.
func (r *Recorder) End(s SpanStart) {
	if r == nil {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	if !r.totalsOnly {
		r.spans = append(r.spans, Span{Rank: s.rank, Name: s.name, Cat: s.cat, Step: s.step, Start: s.start, End: end})
	}
	k := HistKey{Rank: s.rank, Name: s.name}
	h := r.phases[k]
	if h == nil {
		h = r.histLocked(s.rank, s.name)
		r.phases[k] = h
	}
	r.mu.Unlock()
	// Every span feeds the per-(rank, phase) duration histogram, so /metrics
	// and the gathered StepTable report latency distributions as well as the
	// span totals (PhaseTotals).
	h.Observe(end - s.start)
}

// nop is the shared no-op closure Span returns when recording is disabled,
// keeping the disabled path allocation-free.
var nop = func() {}

// Span is Begin with its End returned as a closure, which must be called
// exactly once. The closure costs an allocation per span, so the pipeline's
// own spans use Begin and End.
func (r *Recorder) Span(rank int, name, cat string, step int) func() {
	if r == nil {
		return nop
	}
	s := r.Begin(rank, name, cat, step)
	return func() { r.End(s) }
}

// PhaseTotal is the running total of one phase's spans on one rank.
type PhaseTotal struct {
	Rank  int
	Phase string
	Spans int64
	Total time.Duration
}

// PhaseTotals reports, per (rank, phase), how many spans ended and their
// summed duration, ordered by phase then rank. It reads the histograms every
// span feeds, so its cost depends on the number of (rank, phase) pairs and
// not on how many spans were recorded.
func (r *Recorder) PhaseTotals() []PhaseTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]PhaseTotal, 0, len(r.phases))
	for k, h := range r.phases {
		out = append(out, PhaseTotal{Rank: k.Rank, Phase: k.Name, Spans: h.Count(), Total: h.Sum()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Flow is one endpoint of a cross-rank message: the send point on the
// origin rank or the receive point on the consumer. Matching IDs stitch a
// causal edge between the two ranks' timelines (Chrome-trace flow events).
type Flow struct {
	ID   uint64 // traceid flow identifier, unique per run
	Rank int    // rank recording this point
	Peer int    // the other side of the edge
	T    time.Duration
	Send bool // true at the send point, false at the receive point
	Step int  // 0-based composition step, or StepNone
	Tile int  // tile index, or -1
}

// FlowSend records the send point of a message flow (and its flight-ring
// echo). Called by the fabrics at the hand-off into the wire or mailbox.
func (r *Recorder) FlowSend(rank, peer int, id uint64, step, tile int) {
	r.flowPoint(rank, peer, id, step, tile, true)
}

// FlowRecv records the receive point of a message flow: called at the comm
// Recv boundary, so the flow lands inside the application's receive span
// and deduplicated frames never produce a phantom edge.
func (r *Recorder) FlowRecv(rank, peer int, id uint64, step, tile int) {
	r.flowPoint(rank, peer, id, step, tile, false)
}

func (r *Recorder) flowPoint(rank, peer int, id uint64, step, tile int, send bool) {
	if r == nil {
		return
	}
	if !r.totalsOnly {
		t := time.Since(r.epoch)
		r.mu.Lock()
		r.flows = append(r.flows, Flow{ID: id, Rank: rank, Peer: peer, T: t, Send: send, Step: step, Tile: tile})
		r.mu.Unlock()
	}
	kind := FlightRecv
	if send {
		kind = FlightSend
	}
	r.Flight(rank, kind, step, tile, peer, "")
}

// Flows returns a copy of every recorded flow point, ordered by time (ties
// by ID, send before receive) so output is deterministic.
func (r *Recorder) Flows() []Flow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Flow, len(r.flows))
	copy(out, r.flows)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Send && !out[j].Send
	})
	return out
}

// Add bumps a run-level (step-less) counter.
func (r *Recorder) Add(rank int, name string, v int64) { r.AddStep(rank, StepNone, name, v) }

// AddStep bumps a per-step counter.
func (r *Recorder) AddStep(rank, step int, name string, v int64) {
	if r == nil || v == 0 {
		return
	}
	r.mu.Lock()
	r.counters[CounterKey{Rank: rank, Step: step, Name: name}] += v
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span, ordered by start time (ties
// by rank, then name) so output is deterministic.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Counters returns a copy of the counter registry.
func (r *Recorder) Counters() map[CounterKey]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[CounterKey]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// PhaseStat aggregates the spans of one (step, phase) on one rank.
type PhaseStat struct {
	Step  int    `json:"step"`
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
	Count int64  `json:"count"`
}

// CounterStat is one counter cell of a summary.
type CounterStat struct {
	Step  int    `json:"step"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Summary is one rank's portable telemetry digest: small enough to ship
// through a comm.GatherTimeout to rank 0, complete enough to rebuild the
// per-step timing/bytes table there.
type Summary struct {
	Rank     int           `json:"rank"`
	Phases   []PhaseStat   `json:"phases"`
	Counters []CounterStat `json:"counters"`
	Hists    []HistStat    `json:"hists,omitempty"`
}

// Summary digests the given rank's spans and counters. On a shared
// in-process recorder each rank extracts only its own rows, so the summary
// a rank ships through a gather never double-counts its neighbours.
func (r *Recorder) Summary(rank int) Summary {
	s := Summary{Rank: rank}
	if r == nil {
		return s
	}
	r.mu.Lock()
	type pk struct {
		step int
		name string
	}
	phases := make(map[pk]*PhaseStat)
	for _, sp := range r.spans {
		if sp.Rank != rank {
			continue
		}
		k := pk{sp.Step, sp.Name}
		st := phases[k]
		if st == nil {
			st = &PhaseStat{Step: sp.Step, Name: sp.Name}
			phases[k] = st
		}
		st.Nanos += int64(sp.End - sp.Start)
		st.Count++
	}
	for k, v := range r.counters {
		if k.Rank != rank {
			continue
		}
		s.Counters = append(s.Counters, CounterStat{Step: k.Step, Name: k.Name, Value: v})
	}
	hists := make(map[string]*Histogram)
	for k, h := range r.hists {
		if k.Rank == rank {
			hists[k.Name] = h
		}
	}
	r.mu.Unlock()
	for name, h := range hists {
		if st := h.Snapshot(name); st.Count > 0 {
			s.Hists = append(s.Hists, st)
		}
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	for _, st := range phases {
		s.Phases = append(s.Phases, *st)
	}
	sort.Slice(s.Phases, func(i, j int) bool {
		if s.Phases[i].Step != s.Phases[j].Step {
			return s.Phases[i].Step < s.Phases[j].Step
		}
		return s.Phases[i].Name < s.Phases[j].Name
	})
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Step != s.Counters[j].Step {
			return s.Counters[i].Step < s.Counters[j].Step
		}
		return s.Counters[i].Name < s.Counters[j].Name
	})
	return s
}

// Summaries digests every rank in [0, p) of a shared recorder — the
// in-process equivalent of gathering each rank's Summary.
func (r *Recorder) Summaries(p int) []Summary {
	out := make([]Summary, p)
	for rank := 0; rank < p; rank++ {
		out[rank] = r.Summary(rank)
	}
	return out
}
