package gray

import (
	"testing"
	"time"
)

// TestEstimatorColdStart pins the cold-start contract: before MinSamples
// observations the estimator answers the static deadline verbatim — 0
// (wait forever) stays 0, a configured static stays unclamped.
func TestEstimatorColdStart(t *testing.T) {
	e := NewEstimator(Config{Static: 2 * time.Second, MinSamples: 8})
	if d := e.Deadline(ClassStep, 3); d != 2*time.Second {
		t.Fatalf("cold deadline = %v, want the static 2s", d)
	}
	// Staying below MinSamples keeps the static fallback.
	for i := 0; i < 7; i++ {
		e.Observe(ClassStep, 3, time.Millisecond)
	}
	if d := e.Deadline(ClassStep, 3); d != 2*time.Second {
		t.Fatalf("deadline after 7 samples = %v, want static until MinSamples", d)
	}
	// Other peers and classes are independently cold.
	e.Observe(ClassStep, 3, time.Millisecond)
	if d := e.Deadline(ClassStep, 4); d != 2*time.Second {
		t.Fatalf("peer 4 deadline = %v, want static (no samples)", d)
	}
	if d := e.Deadline(ClassGather, 3); d != 2*time.Second {
		t.Fatalf("gather deadline = %v, want static (other class)", d)
	}
	// Static 0 means "wait forever" cold.
	z := NewEstimator(Config{})
	if d := z.Deadline(ClassStep, 0); d != 0 {
		t.Fatalf("zero-static cold deadline = %v, want 0", d)
	}
	// A nil estimator is inert.
	var nilE *Estimator
	nilE.Observe(ClassStep, 0, time.Millisecond)
	if d := nilE.Deadline(ClassStep, 0); d != 0 {
		t.Fatalf("nil estimator deadline = %v, want 0", d)
	}
}

// TestEstimatorWarm checks that a warm peer's deadline tracks its latency
// with the configured headroom and sits far below a loose static value.
func TestEstimatorWarm(t *testing.T) {
	e := NewEstimator(Config{Static: 10 * time.Second, Floor: time.Millisecond, MinSamples: 8})
	for i := 0; i < 100; i++ {
		e.Observe(ClassStep, 1, 10*time.Millisecond)
	}
	d := e.Deadline(ClassStep, 1)
	// quantile ~= 10ms (one histogram bucket of slack), x4 headroom.
	if d < 20*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("warm deadline = %v, want ~40ms (10ms q99 x4)", d)
	}
	if d >= 10*time.Second {
		t.Fatalf("warm deadline %v did not tighten below the static value", d)
	}
}

// TestEstimatorClockJump pins that negative durations — wall-clock jumps or
// monotonic anomalies — are clamped to zero and cannot wedge the estimator
// into a hair-trigger or panic.
func TestEstimatorClockJump(t *testing.T) {
	e := NewEstimator(Config{Static: time.Second, Floor: 2 * time.Millisecond, MinSamples: 4})
	e.Observe(ClassStep, 0, 10*time.Millisecond)
	e.Observe(ClassStep, 0, -5*time.Hour) // clock jumped backwards
	e.Observe(ClassStep, 0, -1)
	e.Observe(ClassStep, 0, 10*time.Millisecond)
	d := e.Deadline(ClassStep, 0)
	if d < 2*time.Millisecond {
		t.Fatalf("deadline %v fell below the floor after clock jumps", d)
	}
	if d > time.Second {
		t.Fatalf("deadline %v exceeded the static ceiling after clock jumps", d)
	}
}

// TestEstimatorQuantileDrift feeds a burst of slow samples after a fast
// steady state and requires the deadline to widen: the tail quantile must
// absorb the new regime rather than the EWMA alone averaging it away.
func TestEstimatorQuantileDrift(t *testing.T) {
	e := NewEstimator(Config{Static: time.Minute, Floor: time.Millisecond, MinSamples: 8})
	for i := 0; i < 50; i++ {
		e.Observe(ClassStep, 2, 5*time.Millisecond)
	}
	before := e.Deadline(ClassStep, 2)
	for i := 0; i < 50; i++ {
		e.Observe(ClassStep, 2, 100*time.Millisecond)
	}
	after := e.Deadline(ClassStep, 2)
	if after <= before {
		t.Fatalf("deadline did not widen after a slow burst: before=%v after=%v", before, after)
	}
	// The q99 now sits in the 100ms regime; with x4 headroom the deadline
	// must cover a straggler of the new magnitude.
	if after < 100*time.Millisecond {
		t.Fatalf("post-burst deadline %v does not cover the 100ms regime", after)
	}
}

// TestEstimatorClamps pins floor and ceiling behavior at both extremes.
func TestEstimatorClamps(t *testing.T) {
	e := NewEstimator(Config{
		Static: time.Second, Floor: 20 * time.Millisecond,
		Ceiling: 200 * time.Millisecond, MinSamples: 4,
	})
	// Microsecond-fast peers clamp up to the floor.
	for i := 0; i < 20; i++ {
		e.Observe(ClassStep, 0, 10*time.Microsecond)
	}
	if d := e.Deadline(ClassStep, 0); d != 20*time.Millisecond {
		t.Fatalf("fast-peer deadline = %v, want the 20ms floor", d)
	}
	// Very slow peers clamp down to the ceiling.
	for i := 0; i < 20; i++ {
		e.Observe(ClassStep, 1, 3*time.Second)
	}
	if d := e.Deadline(ClassStep, 1); d != 200*time.Millisecond {
		t.Fatalf("slow-peer deadline = %v, want the 200ms ceiling", d)
	}
	// With no explicit ceiling, Static bounds the adaptive deadline.
	e2 := NewEstimator(Config{Static: 100 * time.Millisecond, MinSamples: 4})
	for i := 0; i < 20; i++ {
		e2.Observe(ClassStep, 0, 5*time.Second)
	}
	if d := e2.Deadline(ClassStep, 0); d != 100*time.Millisecond {
		t.Fatalf("deadline = %v, want implicit static ceiling 100ms", d)
	}
}
