package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil recorder must be inert everywhere: instrumented code runs with
// telemetry disabled by passing nil, so every method is exercised here.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	if !r.Epoch().IsZero() {
		t.Fatal("nil recorder has a non-zero epoch")
	}
	end := r.Span(0, PhaseRecv, CatNetwork, 0)
	end() // must not panic
	r.Add(0, CtrMsgs, 1)
	r.AddStep(0, 2, CtrRawBytes, 100)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}
	if got := r.Counters(); got != nil {
		t.Fatalf("nil recorder returned counters: %v", got)
	}
	s := r.Summary(3)
	if s.Rank != 3 || len(s.Phases) != 0 || len(s.Counters) != 0 {
		t.Fatalf("nil recorder summary not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil WriteMetrics output: %q", buf.String())
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines; run
// under -race this is the data-race certificate for the shared-recorder
// mode (rtserve, rtnode -local, rtsim -chaos).
func TestConcurrentRecording(t *testing.T) {
	const ranks, iters = 8, 200
	r := New()
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				end := r.Span(rank, PhaseMerge, CatCompute, i%4)
				r.AddStep(rank, i%4, CtrMsgs, 1)
				r.Add(rank, CtrDeadlineHits, 2)
				end()
			}
		}(rank)
	}
	wg.Wait()

	if got := len(r.Spans()); got != ranks*iters {
		t.Fatalf("recorded %d spans, want %d", got, ranks*iters)
	}
	var msgs, hits int64
	for k, v := range r.Counters() {
		switch k.Name {
		case CtrMsgs:
			msgs += v
		case CtrDeadlineHits:
			hits += v
			if k.Step != StepNone {
				t.Fatalf("run-level counter landed on step %d", k.Step)
			}
		}
	}
	if msgs != ranks*iters {
		t.Fatalf("msgs counter = %d, want %d", msgs, ranks*iters)
	}
	if hits != 2*ranks*iters {
		t.Fatalf("deadline counter = %d, want %d", hits, 2*ranks*iters)
	}
}

func TestAddStepSkipsZero(t *testing.T) {
	r := New()
	r.AddStep(0, 0, CtrOverPixels, 0)
	if len(r.Counters()) != 0 {
		t.Fatal("zero increment created a counter cell")
	}
}

func TestSpansSortedByStart(t *testing.T) {
	r := New()
	// End spans out of order; Spans() must come back sorted by start.
	e1 := r.Span(1, PhaseSend, CatNetwork, 0)
	time.Sleep(time.Millisecond)
	e2 := r.Span(0, PhaseRecv, CatNetwork, 0)
	e2()
	e1()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Rank != 1 || spans[1].Rank != 0 {
		t.Fatalf("spans not ordered by start: %+v", spans)
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
	}
}

// On a shared in-process recorder each rank's Summary must contain only its
// own rows — otherwise the gathered table double-counts every rank.
func TestSummaryFiltersByRank(t *testing.T) {
	r := New()
	for rank := 0; rank < 3; rank++ {
		r.Span(rank, PhaseEncode, CatCompute, 0)()
		r.AddStep(rank, 0, CtrRawBytes, int64(100*(rank+1)))
	}
	for rank := 0; rank < 3; rank++ {
		s := r.Summary(rank)
		if s.Rank != rank {
			t.Fatalf("summary rank = %d, want %d", s.Rank, rank)
		}
		if len(s.Phases) != 1 || s.Phases[0].Name != PhaseEncode || s.Phases[0].Count != 1 {
			t.Fatalf("rank %d phases: %+v", rank, s.Phases)
		}
		if len(s.Counters) != 1 || s.Counters[0].Value != int64(100*(rank+1)) {
			t.Fatalf("rank %d counters: %+v", rank, s.Counters)
		}
	}
	if got := r.Summaries(3); len(got) != 3 || got[2].Rank != 2 {
		t.Fatalf("Summaries(3) = %+v", got)
	}
}

var (
	promComment = regexp.MustCompile(`^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
)

// checkPromText asserts every line of a /metrics payload is a well-formed
// Prometheus text-format (0.0.4) comment or sample.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty metrics payload")
	}
	for _, line := range lines {
		if promComment.MatchString(line) || promSample.MatchString(line) {
			continue
		}
		t.Fatalf("line does not parse as Prometheus text format: %q", line)
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	r := New()
	r.AddStep(0, 0, CtrWireBytes, 512)
	r.AddStep(1, 2, CtrWireBytes, 256)
	r.Add(1, CtrCRCRejects, 3)
	r.Span(0, PhaseRecv, CatNetwork, 0)()
	r.Span(1, PhaseMerge, CatCompute, 1)()

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkPromText(t, out)

	for _, want := range []string{
		`rtcomp_wire_bytes_total{rank="0"} 512`,
		`rtcomp_wire_bytes_total{rank="1"} 256`,
		`rtcomp_crc_rejects_total{rank="1"} 3`,
		`rtcomp_phase_spans_total{rank="1",phase="merge"} 1`,
		"# TYPE rtcomp_wire_bytes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Deterministic across scrapes of an unchanged recorder.
	var buf2 bytes.Buffer
	if err := r.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("two scrapes of an unchanged recorder differ")
	}
}

func TestStepTable(t *testing.T) {
	summaries := []Summary{
		{
			Rank: 0,
			Phases: []PhaseStat{
				{Step: StepNone, Name: PhaseRender, Nanos: 5e8, Count: 1},
				{Step: 0, Name: PhaseEncode, Nanos: 2e6, Count: 2},
				{Step: 0, Name: PhaseRecv, Nanos: 4e6, Count: 2},
			},
			Counters: []CounterStat{
				{Step: 0, Name: CtrMsgs, Value: 2},
				{Step: 0, Name: CtrRawBytes, Value: 2048},
				{Step: 0, Name: CtrWireBytes, Value: 1024},
				{Step: StepNone, Name: CtrDeadlineHits, Value: 1},
			},
		},
		{
			Rank: 1,
			Phases: []PhaseStat{
				{Step: StepNone, Name: PhaseRender, Nanos: 7e8, Count: 1},
				{Step: 1, Name: PhaseMerge, Nanos: 3e6, Count: 1},
			},
			Counters: []CounterStat{
				{Step: 1, Name: CtrMsgs, Value: 1},
				{Step: 1, Name: CtrRawBytes, Value: 512},
				{Step: 1, Name: CtrWireBytes, Value: 512},
			},
		},
	}
	got := StepTable(summaries).String()
	for _, want := range []string{
		"step", "encode", "ratio", // headers
		"2.00x", "1.00x", // per-step compression ratios
		"all",                    // totals row
		"render (slowest rank):", // whole-run phase footnote (max across ranks)
		"700.00ms",               // ... with rank 1's slower render
		CtrDeadlineHits + ": 1",  // run-level counter footnote
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
	// Steps display 1-based.
	if !strings.Contains(got, "\n1 ") && !strings.Contains(got, " 1 ") {
		t.Fatalf("table has no 1-based step row:\n%s", got)
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := New()
	r.Add(0, CtrMsgs, 7)
	r.Span(0, PhaseGather, CatNetwork, StepNone)()
	srv := httptest.NewServer(Mux(r, true))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), buf.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	checkPromText(t, body)
	if !strings.Contains(body, `rtcomp_msgs_total{rank="0"} 7`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, _, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["rtcomp"]; !ok {
		t.Fatalf("/debug/vars missing rtcomp var; keys: %v", keysOf(vars))
	}

	code, _, body = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %q", code, body)
	}
}

func TestNewServerTimeouts(t *testing.T) {
	s := NewServer("127.0.0.1:0", nil)
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.WriteTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("server missing timeouts: %+v", s)
	}
	if s.MaxHeaderBytes <= 0 {
		t.Fatal("server missing header cap")
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWriteMetricsPhaseLabelEscaping pins the label-value rules for phase
// names: a label value is not a metric name, so legal-but-non-alphanumeric
// characters (the dots of "recv.wait") must pass through verbatim, while the
// three characters the text format cannot carry raw inside quotes —
// backslash, double quote, newline — must be escaped.
func TestWriteMetricsPhaseLabelEscaping(t *testing.T) {
	r := New()
	r.Span(0, "recv.wait", CatNetwork, 0)()
	r.Span(1, "odd\"phase\\with\nall", CatCompute, 0)()

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `phase="recv_wait"`) {
		t.Fatalf("dotted phase was mangled through the metric-name alphabet:\n%s", out)
	}
	for _, want := range []string{
		`rtcomp_phase_spans_total{rank="0",phase="recv.wait"} 1`,
		`rtcomp_phase_spans_total{rank="1",phase="odd\"phase\\with\nall"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\nall\"}") {
		t.Fatalf("raw newline leaked into a label value:\n%s", out)
	}
}

// PhaseTotals, which /metrics and /debug/vars are served from, must equal a
// walk over the span history to the nanosecond; a totals-only recorder keeps
// the same totals, its counters, histograms and flight ring, and nothing
// that grows with the spans and flows recorded.
func TestPhaseTotalsMatchSpanWalk(t *testing.T) {
	record := func(r *Recorder) {
		for i := 0; i < 300; i++ {
			rank := i % 3
			r.Span(rank, PhaseMerge, CatCompute, i%4)()
			r.Span(rank, PhaseRecv, CatNetwork, StepNone)()
			r.FlowSend(rank, (rank+1)%3, uint64(i), 0, -1)
			r.FlowRecv((rank+1)%3, rank, uint64(i), 0, -1)
			r.Add(rank, CtrMsgs, 1)
			r.Observe(rank, HistAdmitWait, time.Millisecond) // not a span: must stay out of the phase totals
		}
	}
	full := New()
	record(full)
	type key struct {
		rank  int
		phase string
	}
	walk := map[key]PhaseTotal{}
	for _, sp := range full.Spans() {
		k := key{sp.Rank, sp.Name}
		pt := walk[k]
		pt.Spans++
		pt.Total += sp.End - sp.Start
		walk[k] = pt
	}
	totals := full.PhaseTotals()
	if len(totals) != len(walk) || len(walk) != 6 {
		t.Fatalf("%d phase totals, the span walk has %d (rank, phase) pairs, want 6", len(totals), len(walk))
	}
	for _, pt := range totals {
		if w := walk[key{pt.Rank, pt.Phase}]; pt.Spans != w.Spans || pt.Total != w.Total {
			t.Fatalf("rank %d %s: totals %d spans / %v, span walk %d / %v", pt.Rank, pt.Phase, pt.Spans, pt.Total, w.Spans, w.Total)
		}
	}
	if n := full.expvarSnapshot()["spans"]; n != int64(len(full.Spans())) {
		t.Fatalf("expvar counts %v spans, the history holds %d", n, len(full.Spans()))
	}

	lean := NewTotals()
	record(lean)
	if s, f := len(lean.Spans()), len(lean.Flows()); s != 0 || f != 0 {
		t.Fatalf("totals-only recorder retains %d spans and %d flow points", s, f)
	}
	if got := lean.PhaseTotals(); len(got) != 6 || got[0].Spans != 100 {
		t.Fatalf("totals-only recorder lost its phase totals: %+v", got)
	}
	if lean.Counters()[CounterKey{Rank: 0, Step: StepNone, Name: CtrMsgs}] != 100 ||
		lean.Hist(0, HistAdmitWait).Count() != 100 || len(lean.FlightEvents()) == 0 {
		t.Fatal("totals-only recorder lost counters, histograms or the flight ring")
	}
}

// Begin and End allocate nothing, with recording off and on a NewTotals
// recorder once the phase's histogram exists.
func TestBeginEndAllocFree(t *testing.T) {
	lean := NewTotals()
	lean.End(lean.Begin(1, PhaseMerge, CatCompute, 0))
	for name, r := range map[string]*Recorder{"nil": nil, "totals": lean} {
		if n := testing.AllocsPerRun(1000, func() {
			r.End(r.Begin(1, PhaseMerge, CatCompute, 0))
		}); n != 0 {
			t.Errorf("%s recorder: Begin/End allocates %.1f times a span", name, n)
		}
	}
}

// Begin/End records what the closure form records: after the same scripted
// spans, the same per-phase span counts and the same per-step phase rows.
func TestBeginEndMatchesSpan(t *testing.T) {
	script := []struct {
		rank      int
		name, cat string
		step      int
	}{
		{0, PhaseEncode, CatCompute, 0}, {0, PhaseSend, CatNetwork, 0},
		{1, PhaseRecv, CatNetwork, 0}, {1, PhaseMerge, CatCompute, 0},
		{1, PhaseMerge, CatCompute, 1}, {0, PhaseGather, CatNetwork, StepNone},
	}
	closure, pair := New(), New()
	for _, s := range script {
		closure.Span(s.rank, s.name, s.cat, s.step)()
		pair.End(pair.Begin(s.rank, s.name, s.cat, s.step))
	}
	a, b := closure.PhaseTotals(), pair.PhaseTotals()
	if len(a) != len(b) {
		t.Fatalf("closure form: %d phase totals, Begin/End: %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Phase != b[i].Phase || a[i].Spans != b[i].Spans {
			t.Fatalf("phase total %d: closure form %+v, Begin/End %+v", i, a[i], b[i])
		}
	}
	for rank := 0; rank < 2; rank++ {
		pa, pb := closure.Summary(rank).Phases, pair.Summary(rank).Phases
		if len(pa) != len(pb) {
			t.Fatalf("rank %d: closure form %d phase rows, Begin/End %d", rank, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Step != pb[i].Step || pa[i].Name != pb[i].Name || pa[i].Count != pb[i].Count {
				t.Fatalf("rank %d row %d: closure form %+v, Begin/End %+v", rank, i, pa[i], pb[i])
			}
		}
	}
}
