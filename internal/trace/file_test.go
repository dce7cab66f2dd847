package trace

import (
	"os"
	"path/filepath"
	"testing"

	"rtcomp/internal/telemetry"
)

func TestRankedPath(t *testing.T) {
	for base, want := range map[string]string{
		"trace.json":     "trace-r03.json",
		"out/run.1.json": "out/run.1-r03.json",
		"trace":          "trace-r03",
	} {
		if got := RankedPath(base, 3); got != want {
			t.Fatalf("RankedPath(%q, 3) = %q, want %q", base, got, want)
		}
	}
}

// A rank's file holds exactly that rank's spans and flow points, and the
// whole-run file holds everyone's, each merging cleanly.
func TestWriteFileSplitsByRank(t *testing.T) {
	rec := telemetry.New()
	for r := 0; r < 2; r++ {
		rec.End(rec.Begin(r, telemetry.PhaseMerge, telemetry.CatCompute, 0))
	}
	rec.End(rec.Begin(1, telemetry.PhaseSend, telemetry.CatNetwork, 0))
	rec.FlowSend(1, 0, 7, 0, 0)
	rec.FlowRecv(0, 1, 7, 0, 0)

	dir := t.TempDir()
	all := filepath.Join(dir, "all.json")
	if spans, flows, err := WriteFile(all, rec, -1); err != nil || spans != 3 || flows != 2 {
		t.Fatalf("whole run: %d spans, %d flows, err %v; want 3, 2, nil", spans, flows, err)
	}
	var paths []string
	for r, want := range []int{1, 2} {
		path := RankedPath(filepath.Join(dir, "t.json"), r)
		spans, flows, err := WriteFile(path, rec, r)
		if err != nil || spans != want || flows != 1 {
			t.Fatalf("rank %d: %d spans, %d flows, err %v; want %d, 1, nil", r, spans, flows, err, want)
		}
		paths = append(paths, path)
	}
	for _, files := range [][]string{{all}, paths} {
		m, err := MergeFiles(files...)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Strict(); err != nil {
			t.Fatalf("merging %v: %v", files, err)
		}
	}
	if _, _, err := WriteFile(filepath.Join(dir, "missing", "t.json"), rec, -1); !os.IsNotExist(err) {
		t.Fatalf("unwritable path: err %v, want not-exist", err)
	}
}
