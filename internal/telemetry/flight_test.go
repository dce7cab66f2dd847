package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestFlightRingBasic(t *testing.T) {
	rec := New()
	rec.Flight(0, FlightTile, 2, 5, -1, "claimed")
	rec.Flight(1, FlightSend, StepNone, -1, 0, "")
	events := rec.FlightEvents()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Seq != 0 || events[1].Seq != 1 {
		t.Errorf("sequence order wrong: %+v", events)
	}
	e := events[0]
	if e.Rank != 0 || e.Kind != FlightTile || e.Step != 2 || e.Tile != 5 || e.Note != "claimed" {
		t.Errorf("event fields wrong: %+v", e)
	}
}

// TestFlightRingWrap fills the ring past capacity and checks only the most
// recent FlightCap events survive, still in causal order.
func TestFlightRingWrap(t *testing.T) {
	rec := New()
	total := FlightCap + 100
	for i := 0; i < total; i++ {
		rec.Flight(i%4, FlightRecv, i, -1, -1, "")
	}
	events := rec.FlightEvents()
	if len(events) != FlightCap {
		t.Fatalf("got %d events, want %d", len(events), FlightCap)
	}
	for i, e := range events {
		wantSeq := uint64(total - FlightCap + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Step != int(wantSeq) {
			t.Fatalf("event %d payload mismatch: step %d, want %d", i, e.Step, wantSeq)
		}
	}
}

func TestFlightDumpFormat(t *testing.T) {
	rec := New()
	if rec.FlightDump() != "" {
		t.Error("empty ring must dump empty")
	}
	rec.Flight(2, FlightTile, StepNone, 7, 0, "")
	rec.Flight(0, FlightEpoch, StepNone, -1, -1, "attempt aborted")
	d := rec.FlightDump()
	for _, want := range []string{"flight recorder: last 2 of 2 event(s)", "tile", "tile=7", "epoch", "attempt aborted", "r2", "r0"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Flight(0, FlightSend, 0, 0, 0, "x") // must not panic
	if rec.FlightEvents() != nil || rec.FlightDump() != "" {
		t.Error("nil recorder must be empty")
	}
	var sb strings.Builder
	if err := rec.WriteFlight(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events") {
		t.Errorf("nil WriteFlight output: %q", sb.String())
	}
}

// TestFlightConcurrentAppend hammers the ring under -race.
func TestFlightConcurrentAppend(t *testing.T) {
	rec := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.Flight(w, FlightSend, i, -1, (w+1)%workers, "")
			}
		}(w)
	}
	wg.Wait()
	events := rec.FlightEvents()
	if len(events) != FlightCap {
		t.Fatalf("got %d events, want full ring %d", len(events), FlightCap)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d: %d after %d", i, events[i].Seq, events[i-1].Seq)
		}
	}
}

// TestFlightAppendZeroAllocs is the bench guard: appending must not
// allocate in steady state.
func TestFlightAppendZeroAllocs(t *testing.T) {
	rec := New()
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Flight(1, FlightTile, 3, 4, -1, "step")
	}); allocs != 0 {
		t.Errorf("Flight allocates %v/op, want 0", allocs)
	}
}

func TestDumpFlightOnPanic(t *testing.T) {
	rec := New()
	rec.Flight(0, FlightStall, StepNone, -1, -1, "before crash")
	var sb strings.Builder
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic must propagate")
			}
		}()
		defer rec.DumpFlightOnPanic(&sb)
		panic("boom")
	}()
	out := sb.String()
	if !strings.Contains(out, "boom") || !strings.Contains(out, "before crash") {
		t.Errorf("panic dump missing content:\n%s", out)
	}
}
