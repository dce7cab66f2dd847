// Package gray detects and masks gray failures: peers that are slow but not
// dead. The fault machinery elsewhere in this repo (receive deadlines,
// buddy-replica recovery, reliable sessions) only triggers on silence or
// death — a rank running at a tenth of its usual speed never trips any of
// it, yet stalls every compositing stage behind it.
//
// Two cooperating pieces live here:
//
//   - Estimator derives per-peer, per-phase receive deadlines from observed
//     latency (EWMA + a tail quantile over the telemetry histograms) instead
//     of a single static -recv-timeout, clamped to a floor/ceiling and
//     falling back to the static value until enough samples arrive.
//   - Health scores each peer from deadline misses and session
//     retransmits, distinguishing a brownout (slow, keep waiting) from
//     death (escalate to the failure-agreement path) only past a sustained
//     threshold.
package gray

import (
	"sync"
	"time"

	"rtcomp/internal/telemetry"
)

// Class partitions latency observations by communication phase, so a slow
// gather (normal: the root is draining many peers) does not inflate the
// deadline of scheduled step exchanges.
type Class int

const (
	// ClassStep is a scheduled block transfer between compositing peers.
	ClassStep Class = iota
	// ClassGather is a tile/final gather contribution toward the root.
	ClassGather

	numClasses
)

// String names the class for metrics and dumps.
func (c Class) String() string {
	switch c {
	case ClassStep:
		return "step"
	case ClassGather:
		return "gather"
	default:
		return "unknown"
	}
}

// Config tunes an Estimator. The zero value of every field selects a
// sensible default (see resolved); Static alone is commonly set.
type Config struct {
	// Static is the cold-start deadline: returned verbatim until a peer
	// has MinSamples observations. This is the old -recv-timeout value; 0
	// keeps "wait forever" semantics cold.
	Static time.Duration
	// Floor bounds the adaptive deadline from below so a burst of
	// microsecond-fast samples cannot produce a hair-trigger deadline.
	Floor time.Duration
	// Ceiling bounds the adaptive deadline from above. 0 defaults to
	// Static when Static > 0 — adaptivity may tighten the operator's
	// deadline but never loosen it — and is uncapped otherwise.
	Ceiling time.Duration
	// Quantile is the tail quantile of the latency distribution that the
	// deadline tracks (default 0.99).
	Quantile float64
	// Multiplier is the headroom factor applied over max(EWMA, quantile)
	// (default 4).
	Multiplier float64
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.2).
	Alpha float64
	// MinSamples is how many per-peer observations the estimator needs
	// before it trusts itself over the static fallback (default 8).
	MinSamples int
}

// resolved fills defaulted fields.
func (c Config) resolved() Config {
	if c.Floor <= 0 {
		c.Floor = 5 * time.Millisecond
	}
	if c.Ceiling <= 0 && c.Static > 0 {
		c.Ceiling = c.Static
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.99
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 4
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	return c
}

// statKey identifies one per-peer latency series.
type statKey struct {
	class Class
	peer  int
}

// peerStat is one peer's latency series: a histogram for the tail quantile
// plus an EWMA for the central tendency.
type peerStat struct {
	n    int64
	ewma float64 // nanoseconds
	hist *telemetry.Histogram
}

// Estimator derives per-peer receive deadlines from observed latency. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// estimator always answers with the zero deadline, i.e. "use the static
// path").
type Estimator struct {
	cfg   Config
	mu    sync.Mutex
	peers map[statKey]*peerStat
}

// NewEstimator builds an estimator; zero-valued Config fields take defaults.
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{cfg: cfg.resolved(), peers: make(map[statKey]*peerStat)}
}

// Observe records one latency sample for a peer. Negative durations (clock
// jumps, monotonic anomalies) are clamped to zero rather than poisoning the
// series.
func (e *Estimator) Observe(class Class, peer int, d time.Duration) {
	if e == nil || class < 0 || class >= numClasses {
		return
	}
	if d < 0 {
		d = 0
	}
	k := statKey{class: class, peer: peer}
	e.mu.Lock()
	st := e.peers[k]
	if st == nil {
		st = &peerStat{hist: &telemetry.Histogram{}}
		e.peers[k] = st
	}
	if st.n == 0 {
		st.ewma = float64(d)
	} else {
		st.ewma += e.cfg.Alpha * (float64(d) - st.ewma)
	}
	st.n++
	h := st.hist
	e.mu.Unlock()
	h.Observe(d)
}

// clamp applies the floor/ceiling bounds to an adaptive deadline.
func (e *Estimator) clamp(d time.Duration) time.Duration {
	if d < e.cfg.Floor {
		d = e.cfg.Floor
	}
	if e.cfg.Ceiling > 0 && d > e.cfg.Ceiling {
		d = e.cfg.Ceiling
	}
	return d
}

// Deadline answers the receive deadline to apply while waiting on a peer in
// the given phase: max(EWMA, Quantile) x Multiplier clamped to
// [Floor, Ceiling] once the peer is warm; the static value cold. A zero
// result means "no deadline" (static was zero and nothing is warm).
func (e *Estimator) Deadline(class Class, peer int) time.Duration {
	if e == nil || class < 0 || class >= numClasses {
		return 0
	}
	e.mu.Lock()
	st := e.peers[statKey{class: class, peer: peer}]
	var (
		n    int64
		ewma float64
		hist *telemetry.Histogram
	)
	if st != nil {
		n, ewma, hist = st.n, st.ewma, st.hist
	}
	cfg := e.cfg
	e.mu.Unlock()

	if n < int64(cfg.MinSamples) {
		return cfg.Static
	}
	q := hist.Quantile(cfg.Quantile)
	if ew := time.Duration(ewma); ew > q {
		q = ew
	}
	return e.clamp(time.Duration(float64(q) * cfg.Multiplier))
}
