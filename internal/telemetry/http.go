package telemetry

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Mux returns the live debug surface for a recorder:
//
//	/metrics       Prometheus text exposition of counters, span totals and
//	               latency histograms (marked no-store — every scrape must
//	               see live values, never an intermediary's cache)
//	/debug/vars    expvar JSON (including the "rtcomp" telemetry snapshot)
//	/debug/flight  the flight recorder's recent structured events
//	/debug/pprof   the standard Go profiler endpoints, only when withPprof
//
// Mount it on its own -debug-addr listener (rtnode, where the profiler is
// wanted and the listener is operator-facing) or merge it into an existing
// serve mux (rtserve, where the frame listener should not expose CPU
// profiling to whoever can reach the viewer).
func Mux(r *Recorder, withPprof bool) *http.ServeMux {
	PublishExpvar(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		r.WriteMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if d := r.FlightDump(); d != "" {
			fmt.Fprintln(w, d)
		} else {
			fmt.Fprintln(w, "flight recorder: no events")
		}
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// NewServer wraps a handler in an http.Server with sane limits: a header
// read deadline so an idle connection cannot hold a goroutine forever, a
// write deadline generous enough for slow renders and 30-second pprof
// profiles, and a bounded header size. Both rtserve's main listener and the
// -debug-addr listeners use it instead of the timeout-less
// http.ListenAndServe.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

var publishOnce sync.Once

// PublishExpvar publishes the recorder as the "rtcomp" expvar. The expvar
// registry forbids re-publishing a name, so only the first recorder of a
// process is published; later calls are no-ops.
func PublishExpvar(r *Recorder) {
	publishOnce.Do(func() {
		expvar.Publish("rtcomp", expvar.Func(func() any { return r.expvarSnapshot() }))
	})
}

// expvarSnapshot is the JSON-friendly view behind /debug/vars: counter
// totals and per-phase span seconds, both summed across ranks.
func (r *Recorder) expvarSnapshot() map[string]any {
	counters := map[string]int64{}
	for k, v := range r.Counters() {
		counters[k.Name] += v
	}
	phases := map[string]float64{}
	spans := int64(0)
	for _, p := range r.PhaseTotals() {
		phases[p.Phase] += p.Total.Seconds()
		spans += p.Spans
	}
	return map[string]any{
		"counters":      counters,
		"phase_seconds": phases,
		"spans":         spans,
	}
}
