package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the whole matrix at the smoke shape, untraced and traced,
// and checks that every workload and metric BENCHMARK.json names is
// emitted under that name and that every oracle passes. BENCHMARK.json
// gates a subset of the ledger's workloads (README.md, "The driver's
// gate"); the matrix here is the whole ledger.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) > 8 || len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json over the limits: %d workloads, %d end-to-end, %d per-layer", len(mf.Workloads), len(mf.EndToEnd), len(mf.PerLayer))
	}
	checkDefs := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the benchmark emits %d", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark has %+v", kind, i, g, w)
			}
		}
	}
	checkDefs("end-to-end", mf.EndToEnd, endToEnd)
	checkDefs("per-layer", mf.PerLayer, perLayer)

	for _, w := range mf.Workloads {
		if !nameRE.MatchString(w.Name) || findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
	var names []string
	for _, w := range workloads {
		if w.name == "serve-closed" && testing.Short() {
			continue // builds and starts the server binary
		}
		names = append(names, w.name)
	}
	for _, trace := range []bool{false, true} {
		led, err := run(names, 1, 1, trace, smokeShape)
		if err != nil {
			t.Fatal(err)
		}
		if len(led.Workloads) != len(names) {
			t.Fatalf("trace=%v: %d of %d workloads reported", trace, len(led.Workloads), len(names))
		}
		for _, r := range led.Workloads {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("trace=%v %s: %d of %d frames failed their oracle", trace, r.Name, r.Failed, r.Attempted)
			}
			defs, vals := endToEnd, r.EndToEnd
			if trace {
				defs, vals = perLayer, r.PerLayer
			}
			for _, m := range defs {
				if v, ok := vals[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("trace=%v %s: metric %s missing or in unit %q, want %q", trace, r.Name, m.name, v.Unit, m.unit)
				}
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]value
		}
		if err := json.Unmarshal([]byte(contractLine(led)), &line); err != nil || !line.Correct || line.Attempted == 0 {
			t.Errorf("trace=%v: contract line %+v (err %v)", trace, line, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 float64, rounds []float64) *ledger {
		r := &result{Name: "w", EndToEnd: map[string]value{}, Rounds: map[string][]float64{"frame_ms_p50": rounds}}
		for _, m := range endToEnd {
			r.EndToEnd[m.name] = value{1, m.unit}
		}
		r.EndToEnd["frame_ms_p50"] = value{p50, "ms"}
		return &ledger{Workloads: []*result{r}}
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		path := filepath.Join(dir, name)
		if err := writeLedger(l, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", mk(10, []float64{10, 10.1, 9.9}))
	for _, c := range []struct {
		name      string
		b         *ledger
		regressed bool
	}{
		{"same", mk(10.5, []float64{10.5, 10.4, 10.6}), false},
		{"slower", mk(13, []float64{13, 13.1, 12.9}), true},
		{"noisy", mk(13, []float64{13, 9, 16}), false}, // unresolved, not regressed
	} {
		got, err := compareFiles(io.Discard, a, write(c.name+".json", c.b))
		if err != nil || got != c.regressed {
			t.Errorf("%s: regressed = %v (err %v), want %v", c.name, got, err, c.regressed)
		}
	}
}

// TestQuietTiming: the timing metrics come from the fastest fifth of the
// laps, so laps a neighbour slowed down do not move them.
func TestQuietTiming(t *testing.T) {
	mk := func(frameMs float64) lap {
		l := lap{wall: time.Duration(4 * frameMs * float64(time.Millisecond)), cpu: time.Duration(8 * frameMs * float64(time.Millisecond))}
		for i := 0; i < 4; i++ {
			l.frameMs = append(l.frameMs, frameMs)
		}
		return l
	}
	laps := []lap{mk(30), mk(10), mk(25), mk(10), mk(40), mk(20), mk(35), mk(30), mk(50), mk(45)}
	got := quietTiming(laps)
	if got.laps != 2 || got.samples != 8 || got.p50 != 10 || got.p95 != 10 || got.cpuMs != 20 || got.perSec != 100 {
		t.Errorf("quietTiming = %+v, want the two 10 ms laps: p50 10, p95 10, 100 frames/s, 20 ms CPU per frame", got)
	}
	if one := quietTiming(laps[:1]); one.laps != 1 || one.p50 != 30 {
		t.Errorf("a single lap: %+v, want that lap", one)
	}
}

// TestSpreadMatchesDriver pins spread to Python's
// statistics.quantiles(xs, n=4): [1.5, 3, 4.5] for 1..5.
func TestSpreadMatchesDriver(t *testing.T) {
	if got := spread([]float64{5, 1, 4, 2, 3}); got != 1.0 {
		t.Errorf("spread(1..5) = %v, want (4.5-1.5)/3 = 1", got)
	}
}
