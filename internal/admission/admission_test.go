package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcomp/internal/telemetry"
)

func TestNilAndUnlimitedAdmitEverything(t *testing.T) {
	var nilC *Controller
	rel, err := nilC.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	nilC.ObserveRender(time.Millisecond) // must not panic
	if a, q := nilC.Depth(); a != 0 || q != 0 {
		t.Fatalf("nil depth = %d/%d", a, q)
	}

	c := New(Config{Slots: 0}, nil)
	for i := 0; i < 100; i++ {
		rel, err := c.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
	}
}

func TestSlotsAndQueueFullShed(t *testing.T) {
	rec := telemetry.New()
	c := New(Config{Slots: 1, Queue: 0, Seed: 42}, rec)
	rel, err := c.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Slot taken, queue disabled: the next request sheds immediately.
	if _, err := c.Admit(context.Background()); err == nil {
		t.Fatal("second admit succeeded with one slot busy and no queue")
	} else {
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("shed error type: %T", err)
		}
		if shed.Reason != ReasonQueueFull {
			t.Fatalf("reason = %s, want %s", shed.Reason, ReasonQueueFull)
		}
		if shed.RetryAfter < time.Second || shed.RetryAfter >= 3*time.Second {
			t.Fatalf("RetryAfter %s outside default [1s, 3s)", shed.RetryAfter)
		}
	}
	rel()
	rel() // double release must be a no-op, not a slot leak
	if rel2, err := c.Admit(context.Background()); err != nil {
		t.Fatalf("admit after release: %v", err)
	} else {
		rel2()
	}
	ctr := rec.Counters()
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReqShed}]; n != 1 {
		t.Fatalf("requests_shed = %d, want 1", n)
	}
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReqAdmitted}]; n != 2 {
		t.Fatalf("requests_admitted = %d, want 2", n)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	rec := telemetry.New()
	c := New(Config{Slots: 1, Queue: 4}, rec)
	rel, err := c.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		rel2, err := c.Admit(context.Background())
		if err == nil {
			rel2()
		}
		got <- err
	}()
	// Give the waiter time to park, then free the slot.
	time.Sleep(20 * time.Millisecond)
	if _, q := c.Depth(); q != 1 {
		t.Fatalf("queued = %d, want 1", q)
	}
	rel()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never admitted after the slot freed")
	}
	ctr := rec.Counters()
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReqQueued}]; n != 1 {
		t.Fatalf("requests_queued = %d, want 1", n)
	}
}

func TestDeadlineAwareShed(t *testing.T) {
	c := New(Config{Slots: 1, Queue: 8}, nil)
	// Teach the estimator that renders take ~100ms.
	for i := 0; i < 4; i++ {
		c.ObserveRender(100 * time.Millisecond)
	}
	rel, err := c.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// A caller with 10ms left cannot possibly be served behind a 100ms
	// render: shed now, not after the deadline burns down in queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = c.Admit(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("want deadline shed, got %v", err)
	}
	// A caller with a generous deadline queues instead.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		rel2, err := c.Admit(ctx2)
		if err == nil {
			rel2()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rel()
	if err := <-done; err != nil {
		t.Fatalf("generous-deadline admit: %v", err)
	}
}

func TestCancelledWhileQueued(t *testing.T) {
	c := New(Config{Slots: 1, Queue: 4}, nil)
	rel, err := c.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var shed *ShedError
	if err := <-done; !errors.As(err, &shed) || shed.Reason != ReasonCancelled {
		t.Fatalf("want cancelled shed, got %v", err)
	}
	if _, q := c.Depth(); q != 0 {
		t.Fatalf("queued = %d after cancel, want 0", q)
	}
}

func TestEstimateEWMA(t *testing.T) {
	c := New(Config{Slots: 1}, nil)
	if c.Estimate() != 0 {
		t.Fatal("estimate non-zero before any observation")
	}
	c.ObserveRender(100 * time.Millisecond)
	if got := c.Estimate(); got != 100*time.Millisecond {
		t.Fatalf("first observation = %s, want 100ms", got)
	}
	for i := 0; i < 50; i++ {
		c.ObserveRender(10 * time.Millisecond)
	}
	if got := c.Estimate(); got > 15*time.Millisecond {
		t.Fatalf("estimate %s did not converge toward 10ms", got)
	}
}

func TestRetryAfterJitterRange(t *testing.T) {
	c := New(Config{Slots: 1, RetryAfterMin: 500 * time.Millisecond, RetryAfterJitter: time.Second, Seed: 7}, nil)
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := c.RetryAfter()
		if d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("RetryAfter %s outside [500ms, 1500ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestConcurrentChurnNoLeak(t *testing.T) {
	c := New(Config{Slots: 3, Queue: 16}, telemetry.New())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				rel, err := c.Admit(ctx)
				if err == nil {
					time.Sleep(time.Microsecond)
					rel()
					c.ObserveRender(50 * time.Microsecond)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a, q := c.Depth()
		if a == 0 && q == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked occupancy after churn: active=%d queued=%d", a, q)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedLoopShedsOnlyUnderOverload fires closed-loop clients with no
// think time at the gate: as many clients as slots shed nothing, six times
// as many behind a short queue shed some, and every request that is not
// shed is served.
func TestClosedLoopShedsOnlyUnderOverload(t *testing.T) {
	const reqs = 20
	for _, cell := range []struct {
		clients, slots, queue int
		overload              bool
	}{
		{clients: 2, slots: 2, queue: 4},
		{clients: 12, slots: 2, queue: 2, overload: true},
	} {
		c := New(Config{Slots: cell.slots, Queue: cell.queue, Seed: 1}, nil)
		var served, shed atomic.Int64
		var wg sync.WaitGroup
		for cl := 0; cl < cell.clients; cl++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < reqs; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					t0 := time.Now()
					rel, err := c.Admit(ctx)
					var se *ShedError
					switch {
					case err == nil:
						time.Sleep(200 * time.Microsecond) // the render
						c.ObserveRender(time.Since(t0))
						rel()
						served.Add(1)
					case errors.As(err, &se):
						shed.Add(1)
					default:
						t.Errorf("%d clients: admit: %v", cell.clients, err)
					}
					cancel()
				}
			}()
		}
		wg.Wait()
		if !cell.overload && shed.Load() != 0 {
			t.Fatalf("%d clients on %d slots shed %d requests", cell.clients, cell.slots, shed.Load())
		}
		if cell.overload && (shed.Load() == 0 || served.Load() == 0) {
			t.Fatalf("%d clients on %d slots: served %d, shed %d", cell.clients, cell.slots, served.Load(), shed.Load())
		}
	}
}
