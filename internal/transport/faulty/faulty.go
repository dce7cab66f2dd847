// Package faulty is a fault-injection middleware for any comm.Comm fabric:
// it wraps a rank's endpoint and perturbs its traffic with seeded,
// deterministic faults — message drop, delivery delay/jitter, duplication,
// payload corruption and peer death — so the composition stack can be
// chaos-tested without a real lossy network.
//
// The middleware models a checksummed datagram transport: every payload is
// framed with a CRC-32C trailer at Send and validated at Recv, so an
// injected corruption is detected and discarded on delivery (like a NIC
// dropping a bad frame) rather than silently handed to the application.
// A detected-corrupt or dropped message therefore surfaces to the receiver
// the same way a real loss does: as a missed deadline.
//
// Drops interact with a bounded sender-side retransmission loop with
// exponential backoff — the reliability mechanism under test: a message
// survives if any of its 1+MaxResend transmission attempts escapes the drop
// probability, otherwise it is silently lost (the sender, like a datagram
// sender, is not told).
//
// Determinism: each rank derives its own rand stream from Plan.Seed, and a
// rank's faults depend only on its own call sequence, so a fixed seed
// reproduces the same fault pattern run after run (delivery *interleaving*
// of delayed messages still varies, which the tag-matching fabric absorbs).
package faulty

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// Plan describes the fault mix injected at one rank's endpoint. The zero
// value injects nothing and behaves like the wrapped fabric.
type Plan struct {
	// Seed roots the per-rank deterministic fault streams.
	Seed int64
	// Drop is the per-transmission-attempt probability in [0,1] that a
	// message (or one of its retransmissions) is dropped.
	Drop float64
	// MaxResend bounds the retransmission attempts after a dropped
	// transmission; 0 means a dropped message is simply lost.
	MaxResend int
	// Backoff is the initial delay between retransmission attempts,
	// doubling per attempt. Zero means 1ms.
	Backoff time.Duration
	// DelayProb is the probability that a delivered message is held back by
	// a uniform jitter in (0, MaxDelay] before reaching the receiver.
	DelayProb float64
	// MaxDelay bounds the injected delivery jitter. Zero disables delays.
	MaxDelay time.Duration
	// DupProb is the probability that a delivered message is delivered a
	// second time (receivers must tolerate duplicates).
	DupProb float64
	// CorruptProb is the probability that a delivered message has one
	// payload byte flipped in flight. The middleware's frame checksum
	// detects it and the receiver discards the frame, turning the
	// corruption into a loss.
	CorruptProb float64
	// DieAfterSends, when positive, kills the endpoint after that many
	// Send calls: subsequent operations return ErrDead — the injected
	// peer-death fault.
	DieAfterSends int
	// Brownout holds back every surviving delivery by a fixed delay — the
	// gray-failure model: the endpoint is slow on every message but never
	// dies and never loses data, which is invisible to purely silence-based
	// failure detection until a deadline fires. Stacks with DelayProb
	// jitter. Zero disables it.
	Brownout time.Duration
	// BrownoutAfterSends delays the onset of Brownout until this many Send
	// calls have completed at full speed — the mid-run brownout: early
	// traffic (handshakes, a first block) lands on time, then the
	// endpoint turns slow. Zero means browned out from the first send.
	BrownoutAfterSends int
	// Telemetry, when non-nil, receives the injected-fault counters
	// (retransmissions, losses, corruptions, CRC rejects) as they happen,
	// in addition to the Stats snapshot.
	Telemetry *telemetry.Recorder
}

// ErrDead is returned by every operation on an endpoint whose plan has
// killed it.
var ErrDead = errors.New("faulty: endpoint died (injected peer death)")

// Stats counts the faults an endpoint actually injected, so tests can
// assert the chaos they configured really happened.
type Stats struct {
	Dropped     int // transmission attempts dropped (including retries)
	Lost        int // messages lost after exhausting retransmissions
	Resent      int // retransmission attempts made
	Delayed     int // deliveries held back by jitter
	Duplicated  int
	Corrupted   int
	RejectedCRC int // inbound frames discarded by checksum validation
}

// Endpoint wraps an inner comm.Comm with fault injection.
type Endpoint struct {
	inner comm.Comm
	plan  Plan

	mu    sync.Mutex
	rng   *rand.Rand // made on the first draw: a plan without chance never pays for it
	sent  int
	dead  bool
	stats Stats
}

var _ comm.Comm = (*Endpoint)(nil)

// Wrap returns rank's endpoint perturbed by the plan. Every rank of a
// fabric should be wrapped with the same plan; the per-rank fault streams
// are derived from Plan.Seed and the rank index.
func Wrap(inner comm.Comm, plan Plan) *Endpoint {
	return &Endpoint{inner: inner, plan: plan}
}

// rand returns the endpoint's fault stream, seeded from the plan and the
// rank. Call it under the endpoint lock.
func (e *Endpoint) rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.plan.Seed*1_000_003 + int64(e.inner.Rank())))
	}
	return e.rng
}

// Stats reports the faults injected so far.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Rank implements comm.Comm.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size implements comm.Comm.
func (e *Endpoint) Size() int { return e.inner.Size() }

// roll draws the next fault decision under the endpoint lock.
func (e *Endpoint) roll(prob float64) bool {
	if prob <= 0 {
		return false
	}
	return e.rand().Float64() < prob
}

// crcTable is the Castagnoli polynomial table used for frame trailers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame copies payload into a pooled buffer and appends the CRC-32C
// trailer the receive path validates. The caller owns the returned buffer.
func frame(payload []byte) []byte {
	out := bufpool.Get(len(payload) + 4)
	copy(out, payload)
	binary.BigEndian.PutUint32(out[len(payload):], crc32.Checksum(payload, crcTable))
	return out
}

// unframe strips and validates the trailer; ok is false for a corrupt or
// impossibly short frame.
func unframe(buf []byte) (payload []byte, ok bool) {
	if len(buf) < 4 {
		return nil, false
	}
	payload = buf[:len(buf)-4]
	want := binary.BigEndian.Uint32(buf[len(buf)-4:])
	return payload, crc32.Checksum(payload, crcTable) == want
}

// Send implements comm.Comm: it applies death, corruption, drop/retry,
// delay and duplication faults, in that order, before handing surviving
// transmissions to the inner fabric.
func (e *Endpoint) Send(to, tag int, payload []byte) error {
	return e.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

// SendCtx implements comm.Comm: the caller's trace context rides the
// first surviving delivery into the inner fabric, so the middleware is
// transparent to causal tracing. An injected duplicate is a distinct
// physical delivery and goes through the plain Send path, minting its own
// flow identity — exactly what a duplicated datagram looks like on a trace.
func (e *Endpoint) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return fmt.Errorf("%w (rank %d)", ErrDead, e.inner.Rank())
	}
	e.sent++
	if e.plan.DieAfterSends > 0 && e.sent > e.plan.DieAfterSends {
		e.dead = true
		e.mu.Unlock()
		return fmt.Errorf("%w (rank %d)", ErrDead, e.inner.Rank())
	}
	buf := frame(payload)
	if e.roll(e.plan.CorruptProb) {
		e.stats.Corrupted++
		e.plan.Telemetry.Add(e.inner.Rank(), telemetry.CtrCorruptInjected, 1)
		buf[e.rand().Intn(len(buf))] ^= 0x40
	}
	// Decide the whole transmission schedule for this message up front so
	// the rng stream depends only on this rank's call order, never on
	// delivery timing.
	maxAttempts := 1 + e.plan.MaxResend
	if maxAttempts < 1 {
		maxAttempts = 1 // a negative MaxResend means no retries, not no sends
	}
	drops := 0
	for drops < maxAttempts && e.roll(e.plan.Drop) {
		drops++
	}
	lost := drops == maxAttempts
	e.stats.Dropped += drops
	if lost {
		e.stats.Lost++
		e.stats.Resent += drops - 1
		e.plan.Telemetry.Add(e.inner.Rank(), telemetry.CtrMsgsLost, 1)
		e.plan.Telemetry.Add(e.inner.Rank(), telemetry.CtrRetransmissions, int64(drops-1))
	} else {
		e.stats.Resent += drops
		e.plan.Telemetry.Add(e.inner.Rank(), telemetry.CtrRetransmissions, int64(drops))
	}
	delay := time.Duration(0)
	if !lost && e.roll(e.plan.DelayProb) && e.plan.MaxDelay > 0 {
		e.stats.Delayed++
		delay = time.Duration(e.rand().Int63n(int64(e.plan.MaxDelay))) + 1
	}
	if !lost && e.plan.Brownout > 0 && e.sent > e.plan.BrownoutAfterSends {
		if delay == 0 {
			e.stats.Delayed++
		}
		delay += e.plan.Brownout
	}
	dup := !lost && e.roll(e.plan.DupProb)
	if dup {
		e.stats.Duplicated++
	}
	backoff := e.plan.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	e.mu.Unlock()

	if lost {
		// A datagram sender is not told about loss; the receiver's deadline
		// is the only witness.
		bufpool.Put(buf)
		return nil
	}
	// Pay the retransmission backoff for the attempts that were dropped.
	for a := 0; a < drops; a++ {
		time.Sleep(backoff)
		backoff *= 2
	}
	if delay > 0 {
		// The frame outlives this call: the goroutine that carries out the
		// scheduled deliveries, one after the other, hands it back to the
		// pool after the last of them.
		go func() {
			time.Sleep(delay)
			e.inner.SendCtx(to, tag, buf, tc)
			if dup {
				time.Sleep(delay/2 + 1)
				e.inner.Send(to, tag, buf)
			}
			bufpool.Put(buf)
		}()
		return nil
	}
	// The inner fabric does not retain the frame past Send (it copies or
	// writes it out), so once every synchronous delivery is done the frame
	// can be recycled.
	err := e.inner.SendCtx(to, tag, buf, tc)
	if err == nil && dup {
		// The network made the second copy, not the sender: a receiver that
		// consumed the first one and closed its mailbox must not turn the
		// stray into a send failure.
		e.inner.Send(to, tag, buf)
	}
	bufpool.Put(buf)
	return err
}

// Recv implements comm.Comm.
func (e *Endpoint) Recv(from, tag int) ([]byte, error) {
	_, _, payload, err := e.RecvAny([]comm.MsgKey{{From: from, Tag: tag}}, time.Time{})
	return payload, err
}

// RecvAny implements comm.Comm: it retrieves messages from the inner fabric,
// unframes them and silently discards corrupt frames — re-entering the wait
// until the caller's deadline, so corruption surfaces as a deadline, not
// data.
func (e *Endpoint) RecvAny(keys []comm.MsgKey, deadline time.Time) (int, int, []byte, error) {
	e.mu.Lock()
	dead := e.dead
	e.mu.Unlock()
	if dead {
		return 0, 0, nil, fmt.Errorf("%w (rank %d)", ErrDead, e.inner.Rank())
	}
	for {
		from, tag, buf, err := e.inner.RecvAny(keys, deadline)
		if err != nil {
			return 0, 0, nil, err
		}
		payload, ok := unframe(buf)
		if !ok {
			// The rejected frame is ours to recycle; the caller never sees it.
			bufpool.Put(buf)
			e.mu.Lock()
			e.stats.RejectedCRC++
			e.mu.Unlock()
			e.plan.Telemetry.Add(e.inner.Rank(), telemetry.CtrCRCRejects, 1)
			continue
		}
		// payload is buf minus the trailer with capacity intact, so the
		// caller's eventual bufpool.Put recycles the whole frame.
		return from, tag, payload, nil
	}
}

// Counters implements comm.Comm, delegating to the inner fabric (framing
// overhead included — it is what travelled).
func (e *Endpoint) Counters() comm.Counters { return e.inner.Counters() }

// Close implements comm.Comm.
func (e *Endpoint) Close() error { return e.inner.Close() }
