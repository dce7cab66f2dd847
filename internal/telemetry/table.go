package telemetry

import (
	"fmt"
	"sort"

	"rtcomp/internal/stats"
)

// StepTable merges per-rank summaries into the per-step timing/bytes table
// printed at rank 0: one row per composition step with the phase durations
// summed across ranks, the message count, and the raw/wire byte volume with
// its compression ratio, plus a totals row. Whole-run phases (render,
// gather, warp) and run-level counters land in the footnotes.
func StepTable(summaries []Summary) *stats.Table {
	type agg struct {
		dur  map[string]int64 // phase name -> summed nanos
		ctr  map[string]int64 // counter name -> summed value
		seen bool
	}
	steps := map[int]*agg{}
	at := func(step int) *agg {
		a := steps[step]
		if a == nil {
			a = &agg{dur: map[string]int64{}, ctr: map[string]int64{}}
			steps[step] = a
		}
		return a
	}
	runDur := map[string]int64{} // whole-run phase -> max nanos across ranks
	runCtr := map[string]int64{} // run-level counter -> sum (or max) across ranks
	for _, s := range summaries {
		for _, ph := range s.Phases {
			if ph.Step == StepNone {
				if ph.Nanos > runDur[ph.Name] {
					runDur[ph.Name] = ph.Nanos
				}
				continue
			}
			a := at(ph.Step)
			a.dur[ph.Name] += ph.Nanos
			a.seen = true
		}
		for _, c := range s.Counters {
			if c.Step == StepNone {
				if c.Name == CtrPipeInflightMax {
					// A per-rank peak: summing ranks would report a window
					// depth no rank ever ran at. The busiest rank is the
					// meaningful cross-run number.
					if c.Value > runCtr[c.Name] {
						runCtr[c.Name] = c.Value
					}
				} else {
					runCtr[c.Name] += c.Value
				}
				continue
			}
			a := at(c.Step)
			a.ctr[c.Name] += c.Value
			a.seen = true
		}
	}

	order := make([]int, 0, len(steps))
	for si := range steps {
		order = append(order, si)
	}
	sort.Ints(order)

	t := &stats.Table{
		Title:   "per-step composition telemetry (phase seconds summed across ranks)",
		Headers: []string{"step", "encode", "send", "recv", "decode", "merge", "msgs", "raw", "wire", "ratio"},
	}
	secs := func(ns int64) string {
		if ns == 0 {
			return "-"
		}
		return stats.Seconds(float64(ns) / 1e9)
	}
	totDur := map[string]int64{}
	var totMsgs, totRaw, totWire int64
	for _, si := range order {
		a := steps[si]
		if !a.seen {
			continue
		}
		for _, ph := range []string{PhaseEncode, PhaseSend, PhaseRecv, PhaseDecode, PhaseMerge} {
			totDur[ph] += a.dur[ph]
		}
		totMsgs += a.ctr[CtrMsgs]
		totRaw += a.ctr[CtrRawBytes]
		totWire += a.ctr[CtrWireBytes]
		t.Add(fmt.Sprint(si+1),
			secs(a.dur[PhaseEncode]), secs(a.dur[PhaseSend]), secs(a.dur[PhaseRecv]),
			secs(a.dur[PhaseDecode]), secs(a.dur[PhaseMerge]),
			fmt.Sprint(a.ctr[CtrMsgs]),
			stats.IBytes(a.ctr[CtrRawBytes]), stats.IBytes(a.ctr[CtrWireBytes]),
			stats.Ratio(a.ctr[CtrRawBytes], a.ctr[CtrWireBytes]))
	}
	t.Add("all",
		secs(totDur[PhaseEncode]), secs(totDur[PhaseSend]), secs(totDur[PhaseRecv]),
		secs(totDur[PhaseDecode]), secs(totDur[PhaseMerge]),
		fmt.Sprint(totMsgs), stats.IBytes(totRaw), stats.IBytes(totWire),
		stats.Ratio(totRaw, totWire))

	for _, ph := range []string{PhaseRender, PhaseGather, PhaseWarp} {
		if ns := runDur[ph]; ns > 0 {
			t.Note("%s (slowest rank): %s", ph, stats.Seconds(float64(ns)/1e9))
		}
	}
	names := make([]string, 0, len(runCtr))
	for name := range runCtr {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := runCtr[name]; v != 0 {
			if name == CtrPipeInflightMax {
				t.Note("%s (busiest rank): %d", name, v)
			} else {
				t.Note("%s: %d", name, v)
			}
		}
	}
	for _, note := range HistQuantileNotes(summaries) {
		t.Note("%s", note)
	}
	return t
}

// HistQuantileNotes merges the histogram snapshots shipped inside the
// summaries bucket-wise across ranks and renders one p50/p95/p99 line per
// histogram name — the latency-distribution footnotes of the StepTable.
func HistQuantileNotes(summaries []Summary) []string {
	type merged struct {
		dense []int64
		total int64
		sumNs int64
	}
	byName := map[string]*merged{}
	for _, s := range summaries {
		for _, st := range s.Hists {
			m := byName[st.Name]
			if m == nil {
				m = &merged{dense: make([]int64, HistBuckets)}
				byName[st.Name] = m
			}
			m.total += histMerge(m.dense, st)
			m.sumNs += st.SumNs
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, name := range names {
		m := byName[name]
		if m.total == 0 {
			continue
		}
		p50 := bucketQuantile(m.dense, m.total, 0.50)
		p95 := bucketQuantile(m.dense, m.total, 0.95)
		p99 := bucketQuantile(m.dense, m.total, 0.99)
		out = append(out, fmt.Sprintf("%s: p50=%s p95=%s p99=%s (n=%d, all ranks)",
			name, stats.Seconds(p50.Seconds()), stats.Seconds(p95.Seconds()),
			stats.Seconds(p99.Seconds()), m.total))
	}
	return out
}
