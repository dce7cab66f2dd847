package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteMetrics writes the recorder state in the Prometheus text exposition
// format (version 0.0.4): per-rank counter totals as
// rtcomp_<name>_total{rank="R"}, and per-rank per-phase span aggregates as
// rtcomp_phase_seconds_total / rtcomp_phase_spans_total with rank and phase
// labels. Output is sorted, so it is stable across scrapes.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# telemetry disabled")
		return err
	}

	// Counter totals, aggregated over steps: metric name -> rank -> value.
	byName := map[string]map[int]int64{}
	for k, v := range r.Counters() {
		m := byName[k.Name]
		if m == nil {
			m = map[int]int64{}
			byName[k.Name] = m
		}
		m[k.Rank] += v
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "rtcomp_" + sanitizeMetric(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", metric); err != nil {
			return err
		}
		ranks := sortedRanks(byName[name])
		for _, rank := range ranks {
			if _, err := fmt.Fprintf(w, "%s{rank=\"%d\"} %d\n", metric, rank, byName[name][rank]); err != nil {
				return err
			}
		}
	}

	// Span aggregates per (rank, phase): total seconds and span count.
	if phases := r.PhaseTotals(); len(phases) > 0 {
		if _, err := fmt.Fprintln(w, "# TYPE rtcomp_phase_seconds_total counter"); err != nil {
			return err
		}
		for _, p := range phases {
			if _, err := fmt.Fprintf(w, "rtcomp_phase_seconds_total{rank=\"%d\",phase=\"%s\"} %g\n",
				p.Rank, escapeLabelValue(p.Phase), p.Total.Seconds()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, "# TYPE rtcomp_phase_spans_total counter"); err != nil {
			return err
		}
		for _, p := range phases {
			if _, err := fmt.Fprintf(w, "rtcomp_phase_spans_total{rank=\"%d\",phase=\"%s\"} %d\n",
				p.Rank, escapeLabelValue(p.Phase), p.Spans); err != nil {
				return err
			}
		}
	}

	return r.writeHistMetrics(w)
}

// writeHistMetrics exposes every recorded latency histogram twice: as a
// Prometheus histogram series (cumulative _bucket/_sum/_count, with only
// the buckets whose cumulative count changes — le values are the log-linear
// bucket upper bounds in seconds) and as pre-computed p50/p95/p99 gauges,
// so dashboards get quantiles without a PromQL histogram_quantile over 300
// buckets.
func (r *Recorder) writeHistMetrics(w io.Writer) error {
	hists := r.Hists()
	if len(hists) == 0 {
		return nil
	}
	keys := make([]HistKey, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Rank < keys[j].Rank
	})
	lastName := ""
	for _, k := range keys {
		st := hists[k].Snapshot(k.Name)
		if st.Count == 0 {
			continue
		}
		metric := "rtcomp_" + sanitizeMetric(k.Name) + "_seconds"
		if k.Name != lastName {
			lastName = k.Name
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", metric); err != nil {
				return err
			}
		}
		cum := int64(0)
		for _, b := range st.Buckets {
			cum += b.N
			if _, err := fmt.Fprintf(w, "%s_bucket{rank=\"%d\",le=\"%g\"} %d\n",
				metric, k.Rank, float64(histUpper(b.Idx))/1e9, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{rank=\"%d\",le=\"+Inf\"} %d\n", metric, k.Rank, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{rank=\"%d\"} %g\n", metric, k.Rank, float64(st.SumNs)/1e9); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{rank=\"%d\"} %d\n", metric, k.Rank, cum); err != nil {
			return err
		}
	}
	// Quantile gauges, one series per (name, rank, q).
	lastName = ""
	for _, k := range keys {
		h := hists[k]
		if h.Count() == 0 {
			continue
		}
		metric := "rtcomp_" + sanitizeMetric(k.Name) + "_quantile_seconds"
		if k.Name != lastName {
			lastName = k.Name
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", metric); err != nil {
				return err
			}
		}
		for _, q := range [...]float64{0.50, 0.95, 0.99} {
			if _, err := fmt.Fprintf(w, "%s{rank=\"%d\",quantile=\"%g\"} %g\n",
				metric, k.Rank, q, h.Quantile(q).Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

// escapeLabelValue escapes a string for use inside a quoted Prometheus label
// value, where backslash, double-quote and newline must be escaped but every
// other character — including the dots of phase names like "recv.wait" — is
// legal and passes through verbatim. (The metric-name alphabet does not apply
// to label values; mapping them through sanitizeMetric would mangle the
// phase, e.g. "recv.wait" into "recv_wait".)
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// sanitizeMetric maps an arbitrary counter name onto the Prometheus metric
// name alphabet [a-zA-Z0-9_].
func sanitizeMetric(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			return c
		}
		return '_'
	}, name)
}

func sortedRanks(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
