// External test package: these tests drive GatherSummaries over the real
// in-process fabric, and inproc itself imports telemetry (for causal flow
// recording), so an internal test package would be an import cycle.
package telemetry_test

import (
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/inproc"
)

// GatherSummaries is a collective: run it on a real in-process fabric and
// check root reassembles every rank's digest.
func TestGatherSummariesInproc(t *testing.T) {
	const p = 4
	r := telemetry.New()
	var mu sync.Mutex
	var rootGot []telemetry.Summary
	otherGotNil := true
	err := inproc.Run(p, func(c comm.Comm) error {
		rank := c.Rank()
		r.AddStep(rank, 0, telemetry.CtrMsgs, int64(rank+1))
		var seq comm.Sequencer
		got, err := telemetry.GatherSummaries(c, &seq, 0, r.Summary(rank), 0)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if rank == 0 {
			rootGot = got
		} else if got != nil {
			otherGotNil = false
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !otherGotNil {
		t.Fatal("non-root rank received summaries")
	}
	if len(rootGot) != p {
		t.Fatalf("root got %d summaries, want %d", len(rootGot), p)
	}
	for rank, s := range rootGot {
		if s.Rank != rank {
			t.Fatalf("slot %d holds rank %d", rank, s.Rank)
		}
		if len(s.Counters) != 1 || s.Counters[0].Value != int64(rank+1) {
			t.Fatalf("rank %d counters: %+v", rank, s.Counters)
		}
	}
}

// A dead rank must not wedge the teardown summary gather: with a timeout
// set, the root returns the survivors' partial table plus a recoverable
// error, within a hard watchdog.
func TestGatherSummariesDeadRankNoHang(t *testing.T) {
	const p, dead = 4, 3
	r := telemetry.New()
	var mu sync.Mutex
	var rootGot []telemetry.Summary
	var rootErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(c comm.Comm) error {
			rank := c.Rank()
			if rank == dead {
				// Dies before the gather: its summary never arrives.
				return nil
			}
			r.AddStep(rank, 0, telemetry.CtrMsgs, int64(rank+1))
			var seq comm.Sequencer
			got, err := telemetry.GatherSummaries(c, &seq, 0, r.Summary(rank), 200*time.Millisecond)
			if rank == 0 {
				mu.Lock()
				rootGot, rootErr = got, err
				mu.Unlock()
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("summary gather HUNG on a dead rank despite the timeout")
	}
	if rootErr == nil || !comm.IsRecoverable(rootErr) {
		t.Fatalf("root error = %v, want a recoverable gather error", rootErr)
	}
	if len(rootGot) != p {
		t.Fatalf("root got %d summary slots, want %d", len(rootGot), p)
	}
	for _, rank := range []int{0, 1, 2} {
		if len(rootGot[rank].Counters) != 1 || rootGot[rank].Counters[0].Value != int64(rank+1) {
			t.Fatalf("survivor rank %d summary lost: %+v", rank, rootGot[rank])
		}
	}
	if len(rootGot[dead].Counters) != 0 {
		t.Fatalf("dead rank produced a summary from beyond: %+v", rootGot[dead])
	}
}

// The teardown gather at rank 0 must carry each rank's session-layer
// tallies, attributed to the right rank — the cross-rank view operators
// use to spot a flapping link.
func TestGatherSummariesCarrySessionCounters(t *testing.T) {
	const p = 3
	r := telemetry.New()
	var mu sync.Mutex
	var rootGot []telemetry.Summary
	err := inproc.Run(p, func(c comm.Comm) error {
		rank := c.Rank()
		r.Add(rank, telemetry.CtrReconnects, int64(rank))
		r.Add(rank, telemetry.CtrReplayedFrames, int64(100+rank))
		var seq comm.Sequencer
		got, err := telemetry.GatherSummaries(c, &seq, 0, r.Summary(rank), 0)
		if err != nil {
			return err
		}
		if rank == 0 {
			mu.Lock()
			rootGot = got
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootGot) != p {
		t.Fatalf("root got %d summaries", len(rootGot))
	}
	for rank, s := range rootGot {
		vals := map[string]int64{}
		for _, c := range s.Counters {
			vals[c.Name] = c.Value
		}
		if rank > 0 && vals[telemetry.CtrReconnects] != int64(rank) {
			t.Errorf("rank %d reconnects = %d", rank, vals[telemetry.CtrReconnects])
		}
		if vals[telemetry.CtrReplayedFrames] != int64(100+rank) {
			t.Errorf("rank %d replayed = %d", rank, vals[telemetry.CtrReplayedFrames])
		}
	}
}
