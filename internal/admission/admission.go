// Package admission is overload-aware request admission for the render
// front-ends: a slot semaphore, a bounded wait queue, and deadline-aware
// shedding that refuses work predicted to blow its deadline *before* it
// consumes a queue position.
//
// The distinction this package draws is the server-side face of the grace
// the Recover policy gives gray failures (internal/compositor): an
// overloaded server that queues unboundedly looks exactly like a
// browned-out peer to its clients — every request is eventually answered,
// far too late. Shedding early with an honest Retry-After keeps the served
// requests fast and makes the overload visible instead of smearing it
// across every caller's tail.
package admission

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/telemetry"
)

// Reason classifies why a request was shed.
type Reason string

const (
	// ReasonQueueFull: the wait queue was at capacity.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the caller's deadline would pass before a slot could
	// plausibly be reached (predicted from queue depth and the observed
	// render duration).
	ReasonDeadline Reason = "deadline"
	// ReasonCancelled: the caller's context ended while waiting in queue.
	ReasonCancelled Reason = "cancelled"
)

// ShedError reports a rejected request with enough context for the caller
// to build an honest 503: why, how deep the queue was, and how long the
// client should back off before retrying.
type ShedError struct {
	Reason     Reason
	Queued     int           // waiters at decision time (excluding this request)
	RetryAfter time.Duration // jittered client backoff hint
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: request shed (%s, %d queued, retry after %s)",
		e.Reason, e.Queued, e.RetryAfter.Round(time.Millisecond))
}

// Config tunes a Controller. The zero value means "unlimited": every
// request is admitted immediately.
type Config struct {
	// Slots bounds concurrently admitted requests. <= 0 disables admission
	// control entirely (Admit always succeeds immediately).
	Slots int
	// Queue bounds requests waiting for a slot beyond Slots. 0 means shed
	// immediately when all slots are busy (the pre-admission rtserve
	// behavior); negative means an unbounded queue (discouraged — an
	// unbounded queue turns a burst into uniform lateness).
	Queue int
	// RetryAfterMin/RetryAfterJitter shape the backoff hint in ShedError:
	// uniformly RetryAfterMin + [0, RetryAfterJitter). Jitter prevents a
	// shed burst from returning in lockstep and shedding again. Defaults:
	// 1s + [0, 2s).
	RetryAfterMin    time.Duration
	RetryAfterJitter time.Duration
	// Seed makes the Retry-After jitter deterministic for tests. 0 uses a
	// fixed default (the jitter does not need to be unpredictable, only
	// decorrelated across requests).
	Seed int64
}

// Controller is the admission gate. All methods are safe for concurrent
// use; a nil Controller admits everything.
type Controller struct {
	cfg   Config
	tel   *telemetry.Recorder
	slots chan struct{}

	queued atomic.Int64 // requests currently waiting for a slot
	estNs  atomic.Int64 // EWMA of observed render duration, ns

	rngMu sync.Mutex
	rng   *rand.Rand
}

// estAlpha is the render-duration EWMA smoothing factor: heavy smoothing,
// because the estimate gates shedding and must not chase one slow frame.
const estAlpha = 0.3

// New builds a controller; tel may be nil.
func New(cfg Config, tel *telemetry.Recorder) *Controller {
	if cfg.RetryAfterMin <= 0 {
		cfg.RetryAfterMin = time.Second
	}
	if cfg.RetryAfterJitter < 0 {
		cfg.RetryAfterJitter = 0
	} else if cfg.RetryAfterJitter == 0 {
		cfg.RetryAfterJitter = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Controller{cfg: cfg, tel: tel, rng: rand.New(rand.NewSource(seed))}
	if cfg.Slots > 0 {
		c.slots = make(chan struct{}, cfg.Slots)
	}
	return c
}

// Admit acquires a render slot or sheds the request. On success the
// returned release function MUST be called exactly once when the work
// completes. On failure the error is a *ShedError.
//
// The deadline-aware path: if ctx carries a deadline and the predicted
// time to reach a slot — queue position ahead divided across the slots,
// each holding a slot for the observed render estimate — already exceeds
// it, the request is shed now. Queueing it anyway would burn a queue
// position on work guaranteed to time out, stealing it from a request
// that could still make its deadline.
func (c *Controller) Admit(ctx context.Context) (release func(), err error) {
	if c == nil || c.slots == nil {
		return func() {}, nil
	}
	select {
	case c.slots <- struct{}{}:
		c.tel.Add(0, telemetry.CtrReqAdmitted, 1)
		return c.releaseFunc(), nil
	default:
	}

	// All slots busy: reserve a queue position atomically, then decide
	// whether the position is worth holding.
	pos := int(c.queued.Add(1))
	defer c.queued.Add(-1)
	ahead := pos - 1
	if c.cfg.Queue >= 0 && ahead >= c.cfg.Queue {
		return nil, c.shed(ReasonQueueFull, ahead)
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := c.Estimate(); est > 0 {
			// Everything ahead of us (the queue plus our own render once
			// admitted) spread across the slots, pessimistically assuming
			// every current holder just started.
			rounds := 1 + ahead/c.cfg.Slots + 1
			predicted := time.Duration(rounds) * est
			if time.Until(dl) < predicted {
				return nil, c.shed(ReasonDeadline, ahead)
			}
		}
	}

	c.tel.Add(0, telemetry.CtrReqQueued, 1)
	t0 := time.Now()
	select {
	case c.slots <- struct{}{}:
		c.tel.Hist(0, telemetry.HistAdmitWait).Observe(time.Since(t0))
		c.tel.Add(0, telemetry.CtrReqAdmitted, 1)
		return c.releaseFunc(), nil
	case <-ctx.Done():
		return nil, c.shed(ReasonCancelled, int(c.queued.Load())-1)
	}
}

func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { <-c.slots }) }
}

// shed builds the rejection and counts it.
func (c *Controller) shed(why Reason, queued int) *ShedError {
	if queued < 0 {
		queued = 0
	}
	c.tel.Add(0, telemetry.CtrReqShed, 1)
	return &ShedError{Reason: why, Queued: queued, RetryAfter: c.RetryAfter()}
}

// RetryAfter returns the jittered backoff hint for a 503.
func (c *Controller) RetryAfter() time.Duration {
	if c == nil {
		return time.Second
	}
	d := c.cfg.RetryAfterMin
	if c.cfg.RetryAfterJitter > 0 {
		c.rngMu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.cfg.RetryAfterJitter)))
		c.rngMu.Unlock()
	}
	return d
}

// ObserveRender feeds one completed render's duration into the estimate
// that prices the deadline-aware shed decision.
func (c *Controller) ObserveRender(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.tel.Hist(0, telemetry.HistRenderLatency).Observe(d)
	for {
		old := c.estNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64(float64(old)*(1-estAlpha) + float64(d)*estAlpha)
		}
		if c.estNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Estimate is the current render-duration EWMA (0 until the first
// observation).
func (c *Controller) Estimate() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.estNs.Load())
}

// Depth reports current occupancy: admitted (slot holders) and queued
// waiters. Unlimited controllers report zeros.
func (c *Controller) Depth() (active, queued int) {
	if c == nil || c.slots == nil {
		return 0, 0
	}
	return len(c.slots), int(c.queued.Load())
}
