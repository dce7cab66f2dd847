package main

import (
	"bytes"
	"context"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/admission"
	"rtcomp/internal/telemetry"
)

func TestRenderEndpoint(t *testing.T) {
	srv := &server{p: 2, volN: 32}

	req := httptest.NewRequest("GET", "/render?dataset=brain&yaw=0.4&pitch=0.1&size=64&method=2nrt:2", nil)
	rec := httptest.NewRecorder()
	srv.render(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type %q", ct)
	}
	img, err := png.Decode(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 64 {
		t.Fatalf("decoded width %d", img.Bounds().Dx())
	}
	if rec.Header().Get("X-Render-Time") == "" {
		t.Fatal("missing timing header")
	}
}

// Everything a client can get wrong is a 400, answered before admission:
// a bad request never takes (or is counted as taking) a render slot.
func TestRenderEndpointRejectsBadInput(t *testing.T) {
	rec := telemetry.NewTotals()
	srv := &server{p: 3, volN: 32, rec: rec}
	srv.adm = admission.New(admission.Config{Slots: 1}, rec)
	for _, q := range []string{
		"/render?yaw=zzz",
		"/render?size=4",
		"/render?size=9999",
		"/render?method=bogus",
		"/render?dataset=nope&size=32",
		"/render?codec=zip&size=32&method=pp", // pp runs on 3 ranks, nrt (the default) does not
		"/render?method=bs&size=32",           // binary-swap cannot run on 3 ranks
		"/render?yaw=NaN&size=32&method=pp",   // ParseFloat accepts NaN and ±Inf
		"/render?yaw=Inf&size=32&method=pp",
		"/render?pitch=NaN&size=32&method=pp",
		"/render?codec=%62span&size=32&method=pp",                   // the retired fourth codec, its name percent-encoded
		"/render?deadline_ms=9223372036854775807&size=32&method=pp", // ms past time.Duration's range would wrap negative
		"/render?deadline_ms=10000000000000&size=32&method=pp",
	} {
		w := httptest.NewRecorder()
		srv.render(w, httptest.NewRequest("GET", q, nil))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", q, w.Code, w.Body.String())
		}
	}
	// An explicit block count is auto or in [1, 1024], checked before the
	// schedule is built: on 4 ranks, where nrt runs, nrt:0 used to render as
	// auto and nrt:2000000 to build a multi-gigabyte schedule.
	srv4 := &server{p: 4, volN: 32, rec: rec, adm: srv.adm}
	for _, q := range []string{
		"/render?method=nrt:0&size=32",
		"/render?method=nrt:-1&size=32",
		"/render?method=nrt:2000000&size=32",
	} {
		w := httptest.NewRecorder()
		srv4.render(w, httptest.NewRequest("GET", q, nil))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", q, w.Code, w.Body.String())
		}
	}
	for k, v := range rec.Counters() {
		if k.Name == telemetry.CtrReqAdmitted && v != 0 {
			t.Fatalf("bad requests were admitted: %s = %d", k.Name, v)
		}
	}
	if active, _ := srv.adm.Depth(); active != 0 {
		t.Fatalf("bad requests hold %d slot(s)", active)
	}
}

// stalledWriter is a client that has its headers but does not read the
// body: the first body write blocks until the test lets it go.
type stalledWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	stalled chan struct{} // closed when the handler reaches the body write
	resume  chan struct{}
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.resume
	return w.ResponseRecorder.Write(p)
}

// TestRenderSlowReaderDoesNotPinSlot: with a single slot and no queue, a
// response stuck in its body write must already have given the slot back —
// a second request renders instead of being shed — with the frame fully
// encoded (Content-Length set) and its service time already observed.
func TestRenderSlowReaderDoesNotPinSlot(t *testing.T) {
	srv := &server{p: 2, volN: 32}
	srv.adm = admission.New(admission.Config{Slots: 1, Queue: 0}, nil)
	slow := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), resume: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.render(slow, httptest.NewRequest("GET", "/render?size=64&method=bs", nil))
	}()
	<-slow.stalled
	if active, _ := srv.adm.Depth(); active != 0 {
		t.Errorf("a response waiting on its reader holds %d slot(s)", active)
	}
	if srv.adm.Estimate() <= 0 {
		t.Error("admission has no service-time observation by the time the body is written")
	}
	if cl := slow.Header().Get("Content-Length"); cl == "" {
		t.Error("no Content-Length on a fully encoded body")
	}
	w := httptest.NewRecorder()
	srv.render(w, httptest.NewRequest("GET", "/render?size=64&method=bs", nil))
	if w.Code != 200 {
		t.Errorf("second request behind a slow reader: status %d, want 200: %s", w.Code, w.Body.String())
	}
	close(slow.resume)
	<-done
	if slow.Code != 200 || slow.Body.Len() == 0 {
		t.Fatalf("slow reader's own response: status %d, %d body bytes", slow.Code, slow.Body.Len())
	}
	if got := strconv.Itoa(slow.Body.Len()); got != slow.Header().Get("Content-Length") {
		t.Fatalf("Content-Length %s, body %s bytes", slow.Header().Get("Content-Length"), got)
	}
}

// TestMetricsEndpoint renders a frame through the full routing table, then
// scrapes /metrics and asserts every line is well-formed Prometheus text
// format and that the render left counters behind.
func TestMetricsEndpoint(t *testing.T) {
	srv := &server{p: 2, volN: 32, rec: telemetry.New()}
	mux := newMux(srv, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/render?dataset=engine&size=32&method=bs", nil))
	if rec.Code != 200 {
		t.Fatalf("render status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	comment := regexp.MustCompile(`^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !comment.MatchString(line) && !sample.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus text format: %q", line)
		}
	}
	for _, want := range []string{"rtcomp_msgs_total", "rtcomp_phase_seconds_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %s after a render:\n%s", want, body)
		}
	}

	// The merged debug surface must answer on both mounts.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "rtcomp") {
		t.Fatalf("/debug/vars status %d", rec.Code)
	}
}

// TestMetricsBoundedOverFrames: the server's recorder must not remember
// every span it ever saw, and a scrape must not cost more the longer the
// server has been up — while /metrics keeps reporting exactly the totals a
// walk over the full span history would.
func TestMetricsBoundedOverFrames(t *testing.T) {
	render := func(mux *http.ServeMux, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", "/render?size=16&method=bs&yaw=0."+strconv.Itoa(i%10), nil))
			if w.Code != 200 {
				t.Fatalf("render %d: status %d: %s", i, w.Code, w.Body.String())
			}
		}
	}
	scrape := func(mux *http.ServeMux) (body string, allocated uint64) {
		var m0, m1 runtime.MemStats
		w := httptest.NewRecorder()
		// The recorder's body is the test's, not the scrape's: sized up front,
		// its growth is not charged to the scrape.
		w.Body = bytes.NewBuffer(make([]byte, 0, 1<<20))
		runtime.ReadMemStats(&m0)
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		runtime.ReadMemStats(&m1)
		return w.Body.String(), m1.TotalAlloc - m0.TotalAlloc
	}
	// TotalAlloc counts the whole process, so what another goroutine
	// allocates during a scrape is charged to it: the least of five scrapes
	// is the scrape's own cost.
	leastScrape := func(mux *http.ServeMux) (body string, least uint64) {
		for i := 0; i < 5; i++ {
			b, n := scrape(mux)
			if i == 0 || n < least {
				least = n
			}
			body = b
		}
		return body, least
	}

	// On a recorder that does keep its history, the scrape (served from the
	// per-phase histograms) equals the walk over every span.
	full := telemetry.New()
	mux := newMux(&server{p: 2, volN: 16, rec: full}, false)
	render(mux, 50)
	type key struct{ rank, phase string }
	wantSecs, wantSpans := map[key]float64{}, map[key]int64{}
	for _, sp := range full.Spans() {
		k := key{strconv.Itoa(sp.Rank), sp.Name}
		wantSecs[k] += (sp.End - sp.Start).Seconds()
		wantSpans[k]++
	}
	line := regexp.MustCompile(`^rtcomp_phase_(seconds|spans)_total\{rank="(\d+)",phase="([a-z]+)"\} (\S+)$`)
	body, _ := scrape(mux)
	seen := 0
	for _, l := range strings.Split(body, "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		seen++
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		k := key{m[2], m[3]}
		if m[1] == "spans" && int64(v) != wantSpans[k] {
			t.Fatalf("%q: the span history holds %d", l, wantSpans[k])
		}
		if m[1] == "seconds" && math.Abs(v-wantSecs[k]) > 1e-9+1e-6*wantSecs[k] {
			t.Fatalf("%q: the span history sums to %g", l, wantSecs[k])
		}
	}
	if seen != 2*len(wantSpans) || seen == 0 {
		t.Fatalf("scrape has %d phase lines, the span history has %d (rank, phase) pairs", seen, len(wantSpans))
	}

	// The server's own recorder: 2 000 frames leave no history behind, and
	// the scrape after them costs what the scrape after 200 did.
	rec := telemetry.NewTotals()
	mux = newMux(&server{p: 2, volN: 16, rec: rec}, false)
	render(mux, 200)
	earlyBody, early := leastScrape(mux)
	render(mux, 1800)
	body, late := leastScrape(mux)
	if n, f := len(rec.Spans()), len(rec.Flows()); n != 0 || f != 0 {
		t.Fatalf("after 2000 frames the server recorder retains %d spans and %d flow points", n, f)
	}
	if !strings.Contains(body, `rtcomp_phase_spans_total{rank="0",phase="render"} 2000`) {
		t.Fatalf("scrape after 2000 frames does not count 2000 render spans on rank 0:\n%s", body)
	}
	// A scrape writes a line per series and per filled histogram bucket, at
	// about the same cost a line; how many buckets fill depends on how the
	// host spread the frames' latencies, so the cost is bounded per line.
	earlyLines, lateLines := strings.Count(earlyBody, "\n"), strings.Count(body, "\n")
	if late*uint64(earlyLines) > 2*early*uint64(lateLines) {
		t.Fatalf("a scrape allocated %d bytes for %d lines after 200 frames and %d for %d after 2000: it walks the history",
			early, earlyLines, late, lateLines)
	}
	// The lines are bounded on their own, by the series and not the frames:
	// the same series after 2000 frames as after 200, and no histogram with
	// more bucket lines than it has buckets.
	series := func(body string) (other, buckets, hists int) {
		for _, l := range strings.Split(body, "\n") {
			switch {
			case strings.Contains(l, "_bucket{"):
				buckets++
			case strings.Contains(l, "_count{"):
				hists++
				other++
			default:
				other++
			}
		}
		return other, buckets, hists
	}
	earlyOther, _, _ := series(earlyBody)
	other, buckets, hists := series(body)
	if other != earlyOther || buckets > hists*(telemetry.HistBuckets+1) {
		t.Fatalf("after 200 frames the scrape has %d lines besides buckets, after 2000 %d, and %d bucket lines for %d histograms: it grows with the history",
			earlyOther, other, buckets, hists)
	}
}

// TestMuxHardening: /metrics must be uncacheable, /debug/flight must
// answer, and the profiler endpoints must exist only when opted in.
func TestMuxHardening(t *testing.T) {
	srv := &server{p: 2, volN: 32, rec: telemetry.New()}
	mux := newMux(srv, false)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/metrics Cache-Control = %q, want no-store", cc)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "flight recorder") {
		t.Fatalf("/debug/flight status %d: %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == 200 {
		t.Fatalf("/debug/pprof/ answered %d with pprof disabled", rec.Code)
	}

	open := telemetry.Mux(srv.rec, true)
	rec = httptest.NewRecorder()
	open.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d with pprof enabled", rec.Code)
	}
}

// TestRenderSlotsShedLoad: with every slot taken and no queue the handler
// must answer 503 with a jittered Retry-After and an X-Request-ID instead
// of queueing, and release slots so the next request renders again.
func TestRenderSlotsShedLoad(t *testing.T) {
	srv := &server{p: 2, volN: 32}
	srv.adm = admission.New(admission.Config{Slots: 1, Queue: 0, Seed: 9}, nil)
	release, err := srv.adm.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=32&method=bs", nil))
	if rec.Code != 503 {
		t.Fatalf("busy server status %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Fatalf("Retry-After %q, want an integer in [1, 3]", rec.Header().Get("Retry-After"))
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("shed response without an X-Request-ID")
	}

	release()
	rec = httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=32&method=bs", nil))
	if rec.Code != 200 {
		t.Fatalf("freed server status %d: %s", rec.Code, rec.Body.String())
	}
	if active, queued := srv.adm.Depth(); active != 0 || queued != 0 {
		t.Fatalf("render did not release its slot: active=%d queued=%d", active, queued)
	}
}

// TestRequestIDEchoAndMint: a client-supplied X-Request-ID is echoed back
// verbatim; absent one, the server mints a unique id per request.
func TestRequestIDEchoAndMint(t *testing.T) {
	srv := &server{p: 2, volN: 32}

	req := httptest.NewRequest("GET", "/render?size=32&method=bs", nil)
	req.Header.Set("X-Request-ID", "client-abc-123")
	rec := httptest.NewRecorder()
	srv.render(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("echoed id %q", got)
	}

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.render(rec, httptest.NewRequest("GET", "/render?size=32&method=bs", nil))
		id := rec.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatal("no minted X-Request-ID")
		}
		if ids[id] {
			t.Fatalf("duplicate minted id %q", id)
		}
		ids[id] = true
	}
}

// TestDeadlinePropagation: a client deadline far too tight to render must
// time the request out; a malformed one is a 400. Each timed-out request is
// the first of its dataset, so it pays for building a 64³ scene: a warm 32³
// frame can finish inside a millisecond.
func TestDeadlinePropagation(t *testing.T) {
	srv := &server{p: 2, volN: 64}
	rec := httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=2048&method=bs&deadline_ms=1", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("1ms client deadline status %d, want %d", rec.Code, http.StatusGatewayTimeout)
	}

	req := httptest.NewRequest("GET", "/render?dataset=head&size=2048&method=bs", nil)
	req.Header.Set("X-Deadline-Ms", "1")
	rec = httptest.NewRecorder()
	srv.render(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("1ms header deadline status %d, want %d", rec.Code, http.StatusGatewayTimeout)
	}

	rec = httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=64&method=bs&deadline_ms=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed deadline status %d, want 400", rec.Code)
	}
}

// TestDeadlineAwareShedEndToEnd: with the only slot held and the render
// estimate warmed, a request carrying a hopeless deadline is shed with a
// 503 rather than queued into certain failure.
func TestDeadlineAwareShedEndToEnd(t *testing.T) {
	srv := &server{p: 2, volN: 32}
	srv.adm = admission.New(admission.Config{Slots: 1, Queue: 8}, nil)
	for i := 0; i < 4; i++ {
		srv.adm.ObserveRender(200 * time.Millisecond)
	}
	release, err := srv.adm.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=32&method=bs&deadline_ms=5", nil))
	if rec.Code != 503 {
		t.Fatalf("hopeless-deadline status %d, want 503 shed", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("shed body %q does not name the deadline reason", rec.Body.String())
	}
}

// TestRenderDeadline: a request whose context is already expired must get
// a timeout status, not a rendered frame.
func TestRenderDeadline(t *testing.T) {
	srv := &server{p: 2, volN: 32, reqTO: time.Nanosecond}
	rec := httptest.NewRecorder()
	srv.render(rec, httptest.NewRequest("GET", "/render?size=64&method=bs", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline status %d, want %d", rec.Code, http.StatusGatewayTimeout)
	}
}

func TestIndexPage(t *testing.T) {
	srv := &server{p: 2, volN: 32}
	rec := httptest.NewRecorder()
	srv.index(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if len(body) == 0 || rec.Header().Get("Content-Type") != "text/html; charset=utf-8" {
		t.Fatal("bad index response")
	}
	rec = httptest.NewRecorder()
	srv.index(rec, httptest.NewRequest("GET", "/nothing", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path status %d", rec.Code)
	}
}
