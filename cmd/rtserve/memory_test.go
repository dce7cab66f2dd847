package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rtcomp/internal/admission"
	"rtcomp/internal/telemetry"
)

// A warm request of the serve-closed shape — the ledger's query, P = 4, 96³
// into 384², rtserve's default admission and request deadline — allocates a
// small constant through the whole mux: query, admission, frame, PNG and
// headers. The requests and recorders are built before the measurement, so
// only the server's work is counted, and the collector is off while it runs,
// so a pool a collection emptied is not counted either. The ceiling is the
// highest of twelve runs (58.6 objects on 2 x86 cores) plus 10 %.
func TestServedRequestMemory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement: not in -short mode, not under the race detector")
	}
	const orbit = 12
	const maxObjects = 65
	rec := telemetry.NewTotals()
	srv := &server{p: 4, volN: 96, rec: rec, reqTO: 30 * time.Second}
	srv.adm = admission.New(admission.Config{Slots: 2}, rec)
	mux := newMux(srv, false)
	serve := func(from, n int) {
		reqs := make([]*http.Request, n)
		resps := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			yaw := 2 * math.Pi * float64((from+i)%orbit) / orbit
			reqs[i] = httptest.NewRequest("GET",
				fmt.Sprintf("/render?dataset=engine&size=384&codec=trle&yaw=%.6f&pitch=%.6f", yaw, 0.2), nil)
			resps[i] = httptest.NewRecorder()
		}
		var m0, m1 runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&m0)
		for i := range reqs {
			mux.ServeHTTP(resps[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gc)
		for i, w := range resps {
			if w.Code != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", from+i, w.Code, w.Body.String())
			}
		}
		if from == 0 {
			return // warming up: volume, encodings, schedules, stores
		}
		objects := float64(m1.Mallocs-m0.Mallocs) / float64(n)
		t.Logf("warm request: %.1f objects, %.1f KB", objects, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1024)
		if objects > maxObjects {
			t.Fatalf("a warm request allocates %.1f objects, want at most %d", objects, maxObjects)
		}
	}
	serve(0, 2*orbit)
	serve(2*orbit, 4*orbit)
}
