package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"rtcomp/internal/telemetry"
)

// encodeEvents renders a synthetic per-rank trace file.
func encodeEvents(t *testing.T, evs []chromeEvent) string {
	t.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Two synthetic rank files with rank 1's clock running 1000µs ahead.
// True one-way delays: 50µs for msg 0x1 (rank0->rank1), 60µs for msg 0x2
// (rank1->rank0). The symmetric-delay estimator should recover an offset
// of -995µs for file 1 (off by half the delay asymmetry, 5µs).
func twoRankFiles(t *testing.T) (string, string) {
	t.Helper()
	rank0 := encodeEvents(t, []chromeEvent{
		{Name: "render step 1", Cat: "compute", Ph: "X", TS: 0, Dur: 100, PID: 0, TID: 1},
		{Name: "send step 1", Cat: "network", Ph: "X", TS: 100, Dur: 20, PID: 0, TID: 0},
		{Name: "recv step 2", Cat: "network", Ph: "X", TS: 240, Dur: 40, PID: 0, TID: 0},
		{Name: "merge step 2", Cat: "compute", Ph: "X", TS: 280, Dur: 50, PID: 0, TID: 1},
		{Name: "msg", Cat: "flow", Ph: "s", TS: 110, PID: 0, TID: 0, ID: "0x1"},
		{Name: "msg", Cat: "flow", Ph: "f", TS: 260, PID: 0, TID: 0, ID: "0x2", BP: "e"},
	})
	rank1 := encodeEvents(t, []chromeEvent{
		{Name: "recv step 1", Cat: "network", Ph: "X", TS: 1150, Dur: 30, PID: 1, TID: 0},
		{Name: "merge step 1", Cat: "compute", Ph: "X", TS: 1180, Dur: 15, PID: 1, TID: 1},
		{Name: "send step 2", Cat: "network", Ph: "X", TS: 1195, Dur: 20, PID: 1, TID: 0},
		{Name: "msg", Cat: "flow", Ph: "f", TS: 1160, PID: 1, TID: 0, ID: "0x1", BP: "e"},
		{Name: "msg", Cat: "flow", Ph: "s", TS: 1200, PID: 1, TID: 0, ID: "0x2"},
	})
	return rank0, rank1
}

func TestMergeTwoRanksClockAlignment(t *testing.T) {
	rank0, rank1 := twoRankFiles(t)
	m, err := MergeReaders(strings.NewReader(rank0), strings.NewReader(rank1))
	if err != nil {
		t.Fatal(err)
	}
	if m.OffsetsUS[0] != 0 {
		t.Fatalf("anchor file offset = %v, want 0", m.OffsetsUS[0])
	}
	if m.OffsetsUS[1] != -995 {
		t.Fatalf("file 1 offset = %v, want -995", m.OffsetsUS[1])
	}
	if m.Sends != 2 || m.Recvs != 2 {
		t.Fatalf("flow counts = %d sends, %d recvs, want 2/2", m.Sends, m.Recvs)
	}
	if err := m.Strict(); err != nil {
		t.Fatalf("Strict() = %v on a fully matched merge", err)
	}
	if m.Events() != 11 {
		t.Fatalf("merged %d events, want 11", m.Events())
	}
	// The merged output keeps spans first and stays parseable.
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if evs[0].Ph != "X" {
		t.Fatalf("first merged event ph = %q, want X (span)", evs[0].Ph)
	}
	for i, ev := range evs {
		if ev.Ph != "X" && i < 7 {
			t.Fatalf("flow event at index %d before all %d spans", i, 7)
		}
	}
	// Clock-corrected causality: every matched recv happens after its send.
	ts := map[string]float64{}
	for _, ev := range evs {
		if ev.Ph == "s" {
			ts[ev.ID] = ev.TS
		}
	}
	for _, ev := range evs {
		if ev.Ph == "f" {
			if send, ok := ts[ev.ID]; ok && ev.TS <= send {
				t.Fatalf("flow %s: recv at %v not after send at %v", ev.ID, ev.TS, send)
			}
		}
	}
}

func TestMergeCriticalPathGolden(t *testing.T) {
	rank0, rank1 := twoRankFiles(t)
	m, err := MergeReaders(strings.NewReader(rank0), strings.NewReader(rank1))
	if err != nil {
		t.Fatal(err)
	}
	cp := m.CriticalPath()
	if cp == nil {
		t.Fatal("CriticalPath() = nil")
	}
	if math.Abs(cp.TotalUS-330) > 1e-9 {
		t.Fatalf("TotalUS = %v, want 330", cp.TotalUS)
	}
	if cp.Spans != 7 || cp.Ranks != 2 || cp.Hops != 2 {
		t.Fatalf("Spans/Ranks/Hops = %d/%d/%d, want 7/2/2", cp.Spans, cp.Ranks, cp.Hops)
	}
	want := []PhaseShare{
		{Name: "render", US: 100},
		{Name: "recv", US: 70},
		{Name: "merge", US: 65},
		{Name: "(wait)", US: 55},
		{Name: "send", US: 40},
	}
	if len(cp.Phases) != len(want) {
		t.Fatalf("got %d phases %v, want %d", len(cp.Phases), cp.Phases, len(want))
	}
	for i, w := range want {
		got := cp.Phases[i]
		if got.Name != w.Name || math.Abs(got.US-w.US) > 1e-9 {
			t.Fatalf("phase %d = %q %vus, want %q %vus", i, got.Name, got.US, w.Name, w.US)
		}
		if math.Abs(got.Frac-w.US/330) > 1e-9 {
			t.Fatalf("phase %q frac = %v, want %v", got.Name, got.Frac, w.US/330)
		}
	}
	rep := cp.Report()
	if !strings.Contains(rep, "critical path: 330.0us across 7 span(s) on 2 rank(s), 2 cross-rank hop(s)") {
		t.Fatalf("report header missing:\n%s", rep)
	}
	if !strings.Contains(rep, "render") || !strings.Contains(rep, "30.3%") {
		t.Fatalf("report missing render share:\n%s", rep)
	}
}

func TestMergeStrictDetectsHalfOpenFlows(t *testing.T) {
	lostRecv := encodeEvents(t, []chromeEvent{
		{Name: "send step 1", Cat: "network", Ph: "X", TS: 0, Dur: 10, PID: 0, TID: 0},
		{Name: "msg", Cat: "flow", Ph: "s", TS: 5, PID: 0, TID: 0, ID: "0xdead"},
	})
	orphanRecv := encodeEvents(t, []chromeEvent{
		{Name: "msg", Cat: "flow", Ph: "f", TS: 50, PID: 1, TID: 0, ID: "0xbeef", BP: "e"},
	})
	m, err := MergeReaders(strings.NewReader(lostRecv), strings.NewReader(orphanRecv))
	if err != nil {
		t.Fatal(err)
	}
	if m.UnmatchedSends != 1 || m.UnmatchedRecvs != 1 {
		t.Fatalf("unmatched = %d sends, %d recvs, want 1/1", m.UnmatchedSends, m.UnmatchedRecvs)
	}
	if err := m.Strict(); err == nil {
		t.Fatal("Strict() = nil, want error for half-open flows")
	}
}

func TestMergeSingleFileZeroOffset(t *testing.T) {
	rank0, _ := twoRankFiles(t)
	m, err := MergeReaders(strings.NewReader(rank0))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.OffsetsUS) != 1 || m.OffsetsUS[0] != 0 {
		t.Fatalf("offsets = %v, want [0]", m.OffsetsUS)
	}
	// Half of the pairs are split across the missing file.
	if m.UnmatchedSends != 1 || m.UnmatchedRecvs != 1 {
		t.Fatalf("unmatched = %d/%d, want 1/1", m.UnmatchedSends, m.UnmatchedRecvs)
	}
}

func TestWriteChromeSpansFlowsOrderAndShape(t *testing.T) {
	spans := []telemetry.Span{
		{Rank: 0, Name: "send", Cat: telemetry.CatNetwork, Step: 0, Start: 0, End: 20 * time.Microsecond},
		{Rank: 1, Name: "merge", Cat: telemetry.CatCompute, Step: 0, Start: 30 * time.Microsecond, End: 50 * time.Microsecond},
	}
	flows := []telemetry.Flow{
		{ID: 7, Rank: 0, Peer: 1, T: 10 * time.Microsecond, Send: true, Step: 0, Tile: 3},
		{ID: 7, Rank: 1, Peer: 0, T: 25 * time.Microsecond, Send: false, Step: 0, Tile: 3},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpansFlows(&buf, spans, flows); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Ph != "X" || evs[1].Ph != "X" {
		t.Fatalf("spans not first: %q %q", evs[0].Ph, evs[1].Ph)
	}
	s, f := evs[2], evs[3]
	if s.Ph != "s" || s.ID != "0x7" || s.BP != "" || s.PID != 0 {
		t.Fatalf("send flow = %+v", s)
	}
	if f.Ph != "f" || f.ID != "0x7" || f.BP != "e" || f.PID != 1 {
		t.Fatalf("recv flow = %+v", f)
	}
	if s.Args["tile"] != "3" || s.Args["step"] != "1" || s.Args["peer"] != "1" {
		t.Fatalf("send flow args = %v", s.Args)
	}
	// Span serialization must not grow flow fields.
	raw, _ := json.Marshal(evs[0])
	if strings.Contains(string(raw), "\"id\"") || strings.Contains(string(raw), "\"bp\"") {
		t.Fatalf("span event serialized flow fields: %s", raw)
	}
}

// A self-healing run's join and recovery spans must survive the per-rank
// export/merge round trip onto the merged timeline: a survivor file carrying
// the join-agreement span and a rejoined spare's file carrying its join wait
// and a recovery epoch all land as complete events under their phase names.
func TestMergeRendersJoinAndTransferSpans(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	survivor := []telemetry.Span{
		{Rank: 0, Name: telemetry.PhaseAgree, Cat: telemetry.CatNetwork, Step: telemetry.StepNone, Start: 0, End: us(40)},
		{Rank: 0, Name: telemetry.PhaseJoin, Cat: telemetry.CatNetwork, Step: telemetry.StepNone, Start: us(40), End: us(120)},
	}
	spare := []telemetry.Span{
		{Rank: 1, Name: telemetry.PhaseJoin, Cat: telemetry.CatNetwork, Step: telemetry.StepNone, Start: us(10), End: us(90)},
		{Rank: 1, Name: telemetry.PhaseRecover, Cat: telemetry.CatCompute, Step: telemetry.StepNone, Start: us(115), End: us(125)},
	}
	var f0, f1 bytes.Buffer
	if err := WriteChromeSpansFlows(&f0, survivor, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeSpansFlows(&f1, spare, nil); err != nil {
		t.Fatal(err)
	}
	m, err := MergeReaders(&f0, &f1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := m.Write(&out); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{ // phase name -> ranks that must carry it
		telemetry.PhaseJoin:    {0, 1},
		telemetry.PhaseRecover: {1},
	}
	for name, ranks := range want {
		for _, rank := range ranks {
			found := false
			for _, ev := range evs {
				if ev.Ph == "X" && ev.Name == name && ev.PID == rank && ev.Dur > 0 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("merged timeline is missing the %q span of rank %d", name, rank)
			}
		}
	}
}
