package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &led, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, how
// much worse b is than a, the metric's bound and a verdict: ok, regressed
// (worse by more than the bound) or unresolved (the rounds of either run
// disagree by more than the bound, so the difference cannot be told from
// noise). It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	if a.Trace || b.Trace {
		return false, fmt.Errorf("-compare reads end-to-end results; a traced pass has none")
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n", pathA, a.Env.Commit, a.Seed, pathB, b.Env.Commit, b.Seed)
	fmt.Fprintf(w, "%-22s %-22s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, ra := range a.Workloads {
		var rb *result
		for _, r := range b.Workloads {
			if r.Name == ra.Name {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, m := range reported {
			va, vb := ra.EndToEnd[m.name].Value, rb.EndToEnd[m.name].Value
			// worse is b's relative worsening over a, positive when b is worse.
			worse := 0.0
			switch {
			case va != 0:
				worse = (vb - va) / va
			case vb != 0:
				worse = 1
			}
			if m.better == "higher" {
				worse = -worse
			}
			sp := max(spread(ra.Rounds[m.name]), spread(rb.Rounds[m.name]))
			verdict := "ok"
			switch {
			case sp > m.bound && m.bound > 0:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-22s %-22s %14.4f %14.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				ra.Name, m.name, va, vb, 100*worse, 100*m.bound, 100*sp, verdict)
		}
	}
	return regressed, nil
}
