package gray

import (
	"strings"
	"testing"

	"rtcomp/internal/telemetry"
)

// grayFlights counts a recorder's peer-health flight events about peer whose
// note starts with prefix ("peer gray", "peer recovered").
func grayFlights(rec *telemetry.Recorder, peer int, prefix string) int {
	n := 0
	for _, ev := range rec.FlightEvents() {
		if ev.Kind == telemetry.FlightGray && ev.Peer == peer && strings.HasPrefix(ev.Note, prefix) {
			n++
		}
	}
	return n
}

// TestHealthGrayTransition checks that sustained deadline misses flag a
// peer gray and that the transition is counted and flight-recorded.
func TestHealthGrayTransition(t *testing.T) {
	rec := telemetry.New()
	h := NewHealth(HealthConfig{}, rec, 0)
	h.DeadlineMiss(5) // +3
	if grayFlights(rec, 5, "peer gray") != 0 {
		t.Fatal("one miss flagged gray")
	}
	h.DeadlineMiss(5) // +3 -> 6 = default GrayScore
	if grayFlights(rec, 5, "peer gray") != 1 {
		t.Fatalf("two misses (score %.1f) did not flag gray in the flight recorder", h.Score(5))
	}
	if n := rec.Counters()[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrPeerGray}]; n != 1 {
		t.Fatalf("peer_gray = %d after one transition, want 1", n)
	}
	if h.Misses() != 2 {
		t.Fatalf("Misses = %d, want 2", h.Misses())
	}
}

// TestHealthBrownoutVsDeath is the core brownout/death distinction: a slow
// peer that still delivers (miss, arrive, miss, arrive ...) must hover
// below the escalation bar forever, while a silent peer's score climbs
// monotonically past it.
func TestHealthBrownoutVsDeath(t *testing.T) {
	h := NewHealth(HealthConfig{}, nil, 0)
	// Brownout: every miss is followed by an arrival that decays the score.
	for i := 0; i < 100; i++ {
		h.DeadlineMiss(1)
		if h.ShouldEscalate(1) {
			t.Fatalf("brownout peer escalated after %d miss/arrive cycles (score %.1f)", i, h.Score(1))
		}
		h.Ok(1)
	}
	// Death: misses with no arrivals climb past the bar.
	for i := 0; i < 100; i++ {
		h.DeadlineMiss(2)
		if h.ShouldEscalate(2) {
			if i < 3 {
				t.Fatalf("dead peer escalated after only %d misses", i+1)
			}
			return
		}
	}
	t.Fatal("dead peer never escalated")
}

// TestHealthSignals checks that retransmits feed the score with their
// configured weight.
func TestHealthSignals(t *testing.T) {
	rec := telemetry.New()
	h := NewHealth(HealthConfig{}, rec, 0)
	h.Retransmit(4, 12) // +6
	if h.Score(4) != 6 || grayFlights(rec, 4, "peer gray") != 1 {
		t.Fatalf("12 retransmits (score %.1f) did not flag gray", h.Score(4))
	}
}

// TestHealthRecovery checks that arrivals un-flag a gray peer once its
// score has decayed well below the threshold (hysteresis at half).
func TestHealthRecovery(t *testing.T) {
	rec := telemetry.New()
	h := NewHealth(HealthConfig{}, rec, 0)
	h.DeadlineMiss(1)
	h.DeadlineMiss(1)
	if grayFlights(rec, 1, "peer gray") != 1 {
		t.Fatal("peer not gray after two misses")
	}
	for i := 0; i < 4; i++ {
		h.Ok(1)
	}
	if grayFlights(rec, 1, "peer recovered") != 1 {
		t.Fatalf("peer still gray after decay (score %.1f)", h.Score(1))
	}
}

// TestHealthNil pins that a nil Health is inert on every method.
func TestHealthNil(t *testing.T) {
	var h *Health
	h.DeadlineMiss(0)
	h.Retransmit(0, 5)
	h.Ok(0)
	if h.ShouldEscalate(0) || h.Score(0) != 0 || h.Misses() != 0 {
		t.Fatal("nil Health is not inert")
	}
}
