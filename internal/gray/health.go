// Package gray masks gray failures: peers that are slow but not dead. The
// fault machinery elsewhere in this repo (receive deadlines, buddy-replica
// recovery, reliable sessions) only triggers on silence or death — a rank
// running at a tenth of its usual speed trips a deadline without being gone,
// and evicting it costs a recovery epoch that waiting would not.
//
// Health scores each peer from deadline misses and session retransmits,
// distinguishing a brownout (slow, keep waiting) from death (escalate to
// the failure-agreement path) only past a sustained threshold.
package gray

import (
	"fmt"
	"sync"

	"rtcomp/internal/telemetry"
)

// HealthConfig tunes peer-health scoring. The zero value of every field
// selects a default (see resolvedHealth).
type HealthConfig struct {
	// GrayScore is the score at which a peer is flagged gray (default 6:
	// two consecutive deadline misses at the default MissWeight).
	GrayScore float64
	// EscalateScore is the score past which ShouldEscalate reports true and
	// the caller may hand the peer to the failure-agreement path. It should
	// be several consecutive unanswered deadlines' worth: a browned-out
	// peer keeps delivering (each arrival decays its score), a dead one
	// climbs monotonically (default 18: six consecutive misses).
	EscalateScore float64
	// MissWeight is added per receive-deadline miss (default 3).
	MissWeight float64
	// RetransmitWeight is added per session-frame retransmit (default 0.5).
	RetransmitWeight float64
	// Decay multiplies the score on every successful arrival from the peer
	// (default 0.5), so sustained scores require sustained misbehavior.
	Decay float64
}

// resolvedHealth fills defaulted fields.
func (c HealthConfig) resolvedHealth() HealthConfig {
	if c.GrayScore <= 0 {
		c.GrayScore = 6
	}
	if c.EscalateScore <= 0 {
		c.EscalateScore = 18
	}
	if c.MissWeight <= 0 {
		c.MissWeight = 3
	}
	if c.RetransmitWeight <= 0 {
		c.RetransmitWeight = 0.5
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	return c
}

// peerHealth is one peer's running score and its deadline-miss tally.
type peerHealth struct {
	score  float64
	misses int64
	gray   bool
}

// Health scores peers from gray-failure signals. All methods are safe for
// concurrent use and safe on a nil receiver (a nil Health never flags or
// escalates anyone, preserving the pre-existing silence-only semantics).
type Health struct {
	cfg  HealthConfig
	tel  *telemetry.Recorder
	rank int
	mu   sync.Mutex
	peer map[int]*peerHealth
}

// NewHealth builds a health tracker for one rank; tel may be nil.
func NewHealth(cfg HealthConfig, tel *telemetry.Recorder, rank int) *Health {
	return &Health{cfg: cfg.resolvedHealth(), tel: tel, rank: rank, peer: make(map[int]*peerHealth)}
}

// get returns (creating) the peer's record; caller holds h.mu.
func (h *Health) get(peer int) *peerHealth {
	ph := h.peer[peer]
	if ph == nil {
		ph = &peerHealth{}
		h.peer[peer] = ph
	}
	return ph
}

// bump adds w to the peer's score and records a gray transition.
func (h *Health) bump(peer int, w float64) {
	ph := h.get(peer)
	ph.score += w
	if !ph.gray && ph.score >= h.cfg.GrayScore {
		ph.gray = true
		h.tel.Add(h.rank, telemetry.CtrPeerGray, 1)
		h.tel.Flight(h.rank, telemetry.FlightGray, telemetry.StepNone, -1, peer,
			fmt.Sprintf("peer gray: score=%.1f", ph.score))
	}
}

// DeadlineMiss records a receive deadline that expired while the peer still
// owed data.
func (h *Health) DeadlineMiss(peer int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.get(peer).misses++
	h.bump(peer, h.cfg.MissWeight)
}

// Retransmit records session frames replayed to the peer after an outage.
func (h *Health) Retransmit(peer int, frames int) {
	if h == nil || frames <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bump(peer, h.cfg.RetransmitWeight*float64(frames))
}

// Ok records a successful arrival from the peer, decaying its score: a
// brownout that still makes progress hovers below the escalation bar.
func (h *Health) Ok(peer int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.peer[peer]
	if ph == nil {
		return
	}
	ph.score *= h.cfg.Decay
	if ph.gray && ph.score < h.cfg.GrayScore/2 {
		ph.gray = false
		h.tel.Flight(h.rank, telemetry.FlightGray, telemetry.StepNone, -1, peer,
			fmt.Sprintf("peer recovered: score=%.1f", ph.score))
	}
}

// Score answers the peer's current score (0 if unknown).
func (h *Health) Score(peer int) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if ph := h.peer[peer]; ph != nil {
		return ph.score
	}
	return 0
}

// ShouldEscalate reports whether the peer's misbehavior has been sustained
// enough to justify the failure-agreement path. The caller decides what to
// do with the answer (and records the escalation).
func (h *Health) ShouldEscalate(peer int) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.peer[peer]
	return ph != nil && ph.score >= h.cfg.EscalateScore
}

// Misses totals the deadline misses recorded against every peer.
func (h *Health) Misses() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, ph := range h.peer {
		n += ph.misses
	}
	return n
}
