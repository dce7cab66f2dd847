// rtserve is a tiny interactive viewer: an HTTP server that renders frames
// on demand with the full parallel pipeline and streams them back as PNG.
//
//	rtserve -listen :8080 -p 8
//	# then open http://localhost:8080/?dataset=head&yaw=0.6&pitch=0.2
//
// Endpoints:
//
//	GET /render?dataset=&yaw=&pitch=&size=&method=&codec=  -> image/png
//	GET /                                                  -> minimal HTML viewer
//	GET /metrics                                           -> Prometheus text telemetry
//	GET /debug/vars                                        -> expvar JSON
//	GET /debug/pprof/                                      -> Go profiler endpoints
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtcomp/internal/admission"
	"rtcomp/internal/core"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:8080", "listen address")
		p      = flag.Int("p", 8, "processor (goroutine rank) count per frame")
		volN   = flag.Int("voln", 96, "phantom resolution")
		slots  = flag.Int("slots", 2, "concurrent render slots; excess requests queue or get 503 + Retry-After")
		queue  = flag.Int("queue", 0, "requests allowed to wait for a slot beyond -slots; 0 sheds immediately when busy")
		reqTO  = flag.Duration("request-timeout", 30*time.Second, "per-request render deadline (0 = none); clients may tighten per request with ?deadline_ms= or X-Deadline-Ms")
		pipe   = flag.Bool("pipeline", false, "compose frames with the per-tile pipelined compositor by default (per-request override: ?pipeline=0|1)")
		pprofF = flag.Bool("pprof", false, "expose /debug/pprof on the frame listener (off by default: whoever can fetch frames should not get CPU profiles)")
	)
	flag.Parse()

	// The recorder lives as long as the process: totals only, no span history.
	srv := &server{p: *p, volN: *volN, rec: telemetry.NewTotals(), reqTO: *reqTO, pipeline: *pipe}
	srv.adm = admission.New(admission.Config{Slots: *slots, Queue: *queue}, srv.rec)
	// An http.Server with explicit limits, not the timeout-less
	// http.ListenAndServe: a stalled client must not pin a handler forever.
	hs := telemetry.NewServer(*listen, newMux(srv, *pprofF))
	log.Printf("rtserve: listening on http://%s (p=%d, vol %d^3, %d slot(s), queue %d); telemetry at /metrics, /debug/vars, /debug/flight (pprof: %v)", *listen, *p, *volN, *slots, *queue, *pprofF)

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, lets in-flight
	// renders drain (bounded), then exits — no frames cut off mid-PNG.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Print("rtserve: shutting down, draining in-flight renders")
		drain, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(drain); err != nil {
			log.Printf("rtserve: shutdown: %v", err)
		}
	}
}

// newMux wires the viewer endpoints and the live telemetry surface onto one
// mux — split out of main so tests can drive the full routing table.
func newMux(s *server, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/render", s.render)
	mux.HandleFunc("/", s.index)
	debug := telemetry.Mux(s.rec, withPprof)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	return mux
}

type server struct {
	p, volN  int
	eng      core.Engine           // volumes, encodings, schedules: everything a frame does not change
	rec      *telemetry.Recorder   // accumulates across frames; served at /metrics
	adm      *admission.Controller // overload-aware admission; nil = unlimited
	reqTO    time.Duration         // per-request render deadline; 0 = none
	pipeline bool                  // default composition mode; ?pipeline= overrides
	reqSeq   atomic.Uint64         // generated X-Request-ID sequence
}

// requestID echoes the client's X-Request-ID or mints one, so a shed or a
// slow frame can be correlated between client logs, server logs and the
// flight recorder. The id is set on the response before any outcome is
// known — a 503 is exactly the response that most needs tracing.
func (s *server) requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 128 {
		id = "rts-" + strconv.FormatUint(s.reqSeq.Add(1), 36) + "-" + strconv.FormatInt(time.Now().UnixNano()&0xFFFFFF, 36)
	}
	w.Header().Set("X-Request-ID", id)
	return id
}

// shedResponse turns an admission rejection into an honest 503: a jittered
// Retry-After (whole seconds, rounded up — zero would mean "hammer me
// again now") and the shed reason in the body.
func shedResponse(w http.ResponseWriter, shed *admission.ShedError) {
	secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, fmt.Sprintf("render shed: %s (%d queued)", shed.Reason, shed.Queued),
		http.StatusServiceUnavailable)
}

// queryFloat parses a float query parameter with a default.
func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func (s *server) render(w http.ResponseWriter, r *http.Request) {
	s.requestID(w, r)
	yaw, err := queryFloat(r, "yaw", 0.35)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pitch, err := queryFloat(r, "pitch", 0.2)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size, err := queryInt(r, "size", 384)
	if err != nil || size < 16 || size > 2048 {
		http.Error(w, "size must be in [16, 2048]", http.StatusBadRequest)
		return
	}
	dataset := r.URL.Query().Get("dataset")
	if dataset == "" {
		dataset = "engine"
	}
	methodStr := r.URL.Query().Get("method")
	if methodStr == "" {
		methodStr = "nrt:auto"
	}
	method, err := core.ParseMethod(methodStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	codec := r.URL.Query().Get("codec")
	if codec == "" {
		codec = "trle"
	}
	pipelined := s.pipeline
	if v := r.URL.Query().Get("pipeline"); v != "" {
		pipelined, err = strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "pipeline must be a boolean", http.StatusBadRequest)
			return
		}
	}

	// The render deadline is the tighter of the server's own bound and the
	// deadline the client propagated (?deadline_ms= or X-Deadline-Ms):
	// admission sheds against it, and the renderer's context honors it.
	deadline := s.reqTO
	dlStr := r.URL.Query().Get("deadline_ms")
	if dlStr == "" {
		dlStr = r.Header.Get("X-Deadline-Ms")
	}
	if dlStr != "" {
		ms, err := strconv.Atoi(dlStr)
		if err != nil || ms <= 0 {
			http.Error(w, "deadline_ms must be a positive integer", http.StatusBadRequest)
			return
		}
		if d := time.Duration(ms) * time.Millisecond; deadline == 0 || d < deadline {
			deadline = d
		}
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// Everything the client can get wrong is resolved before a slot is
	// asked for: a bad request is a 400 and never counts as admitted.
	frame, err := s.eng.Prepare(core.Config{
		Dataset:   dataset,
		VolumeN:   s.volN,
		Camera:    shearwarp.Camera{Yaw: yaw, Pitch: pitch},
		Width:     size,
		Height:    size,
		P:         s.p,
		Method:    method,
		Codec:     codec,
		RLE:       true,
		Pipeline:  pipelined,
		Telemetry: s.rec,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	release, err := s.adm.Admit(ctx)
	if err != nil {
		var shed *admission.ShedError
		if errors.As(err, &shed) {
			shedResponse(w, shed)
			return
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// The slot covers the work, not the client: render and encode inside
	// it, give it back, and only then write to a reader who may be slow.
	body := pngPool.Get().(*bytes.Buffer)
	defer pngPool.Put(body)
	body.Reset()
	t0 := time.Now()
	rep, err := frame.RenderCtx(ctx)
	if err == nil {
		if err = rep.Image.WritePNG(body); err == nil {
			s.adm.ObserveRender(time.Since(t0))
		}
		rep.Release() // the PNG is a copy: the next frame can warp into the image
	}
	release()
	if err != nil {
		// The deadline may surface directly or wrapped in whichever rank
		// tripped over the cancelled fabric first; either way, an expired
		// context is the request's own deadline, not a server fault.
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			http.Error(w, "render exceeded the request deadline", http.StatusGatewayTimeout)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.Header().Set("X-Render-Time", rep.RenderTime.String())
	w.Header().Set("X-Composite-Time", rep.CompositeAll.String())
	w.Header().Set("X-Pipeline", strconv.FormatBool(pipelined))
	if _, err := w.Write(body.Bytes()); err != nil {
		log.Printf("rtserve: writing png: %v", err)
	}
}

// pngPool recycles the buffers frames are encoded into.
var pngPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html>
<title>rtcomp viewer</title>
<style>body{font-family:sans-serif;margin:2em}img{border:1px solid #888;image-rendering:pixelated}</style>
<h1>rtcomp — rotate-tiling parallel volume renderer</h1>
<p>
  dataset <select id=d><option>engine</option><option>head</option><option>brain</option></select>
  yaw <input id=y type=range min=-3.1 max=3.1 step=0.05 value=0.35>
  pitch <input id=x type=range min=-1.2 max=1.2 step=0.05 value=0.2>
  method <select id=m><option>nrt:auto</option><option>2nrt:4</option><option>bs</option><option>pp</option><option>ds</option><option>radixk</option></select>
</p>
<img id=v width=384 height=384 alt="rendering...">
<script>
const img=document.getElementById('v');
function refresh(){
  const d=document.getElementById('d').value, y=document.getElementById('y').value,
        x=document.getElementById('x').value, m=document.getElementById('m').value;
  img.src='/render?dataset='+d+'&yaw='+y+'&pitch='+x+'&method='+encodeURIComponent(m);
}
for(const id of ['d','y','x','m']) document.getElementById(id).addEventListener('change',refresh);
refresh();
</script>`)
}
