package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer (or, for spans
// imported from the program's public recorder, one phase the program timed
// itself). Spans are kept in memory and written out at exit.
type span struct {
	id, parent int // parent 0 = root
	name       string
	layer      string // repo module the time is charged to
	frame      int    // frame id shared by every span of one frame; -1 = probe
	track      int    // rank or client: the row of the trace view
	wait       bool   // time spent blocked on another rank, not working
	start, end time.Duration
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// pass runs the same code with no recording cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func nop() {}

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name, layer string, parent, frame, track int) (int, func()) {
	if t == nil {
		return 0, nop
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, name: name, layer: layer, frame: frame, track: track, start: start, end: -1})
	id := len(t.spans)
	t.spans[id-1].id = id
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].end = end
		t.mu.Unlock()
	}
}

// add records an already-timed span (one imported from the program's
// recorder); at is the absolute start time.
func (t *tracer) add(s span, at time.Time, d time.Duration) {
	s.start = at.Sub(t.epoch)
	s.end = s.start + d
	t.mu.Lock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes charges every span's self time — its duration minus the part
// its children cover — to its layer, split into busy and waiting time.
func (t *tracer) selfTimes() (busy, wait map[string]time.Duration) {
	busy, wait = map[string]time.Duration{}, map[string]time.Duration{}
	if t == nil {
		return
	}
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.end >= 0 && s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(kids[s.id], s.start, s.end)
		if s.wait {
			wait[s.layer] += self
		} else {
			busy[s.layer] += self
		}
	}
	return
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi]: concurrent children (pipelined tiles) are not counted twice.
func covered(kids []span, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	at := lo
	for _, k := range kids {
		a, b := max(k.start, at), min(k.end, hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// traceFileFrames bounds the span file: the spans of the first frames of
// the traced windows and of every probe; a viewer cannot open more, and the
// layer metrics are computed from the spans in memory, not from the file.
const traceFileFrames = 100

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one row per rank or client, args carrying span, parent and
// frame ids.
func (t *tracer) writeChrome(path string) error {
	keep := map[int]bool{-1: true}
	for _, s := range t.spans { // frame spans were appended as they began: the earliest frames
		if len(keep) > traceFileFrames {
			break
		}
		keep[s.frame] = true
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 || !keep[s.frame] {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.track,
			Args: map[string]int{"id": s.id, "parent": s.parent, "frame": s.frame},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
