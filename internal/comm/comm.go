// Package comm defines the message-passing abstraction the composition
// methods run on: ranked point-to-point sends and receives with tag
// matching, plus the handful of collectives the paper's algorithms need
// (barrier, gather). Two fabrics implement it — an in-process
// goroutine fabric and a hand-rolled TCP socket fabric — so the same
// compositor code runs shared-memory-parallel or truly distributed.
package comm

import (
	"errors"
	"fmt"
	"time"

	"rtcomp/internal/traceid"
)

// Comm is one rank's endpoint into a P-way communicator.
//
// A Comm belongs to its rank's program, which may drive it from several
// goroutines: Send may be called while this or another rank is blocked in a
// receive, and the receive calls may run concurrently on one endpoint. A
// message is delivered to exactly one caller whose key set names it, and one
// that nobody asks for yet waits until somebody does. Concurrent callers
// should keep their key sets disjoint, apart from select-only keys such as
// FAILED notices, which whoever sees first consumes; a caller's deadline
// runs on its own keys, whatever arrives for the others. Whether concurrent
// Sends are safe is the fabric's business: callers that send from several
// goroutines serialize them (the compositor's lockedComm). Tags distinguish
// in-flight messages between the same pair of ranks: a (from, tag) pair must
// be unique among undelivered messages. Negative tags are reserved for the
// collectives.
//
// Buffer ownership: Send does not retain payload after it returns — the
// fabric copies it or writes it out, so the caller may immediately reuse or
// recycle the buffer. Conversely, a payload returned by a receive call is
// handed to the caller with exclusive ownership: the fabric keeps no
// reference, so the caller may mutate it in place and, once done, return it
// to internal/bufpool for recycling.
type Comm interface {
	// Rank is this endpoint's index in [0, Size).
	Rank() int
	// Size is the number of ranks.
	Size() int
	// Send delivers payload to rank `to` with the given tag. It does not
	// block waiting for the receiver.
	Send(to, tag int, payload []byte) error
	// Recv blocks until the message with the given source and tag arrives
	// and returns its payload.
	Recv(from, tag int) ([]byte, error)
	// RecvTimeout is Recv with a deadline: if the message has not arrived
	// within the timeout it returns a *DeadlineError (matching ErrDeadline)
	// and the message, should it arrive later, stays retrievable. A
	// timeout <= 0 waits forever, exactly like Recv.
	RecvTimeout(from, tag int, timeout time.Duration) ([]byte, error)
	// RecvAnyTimeout blocks until any of the (source, tag) pairs arrives and
	// returns the matched source, tag and payload — receipt in arrival
	// order, avoiding head-of-line blocking across several outstanding
	// messages. The deadline has the same contract as RecvTimeout's:
	// timeout <= 0 waits forever, an elapsed deadline yields a
	// *DeadlineError naming the keys still outstanding.
	RecvAnyTimeout(keys []MsgKey, timeout time.Duration) (from, tag int, payload []byte, err error)
	// Counters reports the traffic this endpoint has generated so far.
	Counters() Counters
	// Close releases the endpoint. Other ranks' pending operations may fail
	// after a Close.
	Close() error
}

// CtxSender is optionally implemented by fabrics that can attach a causal
// trace context to an outgoing message. The fabric completes a context
// whose Seq is zero (minting Origin and Seq at the hand-off point) and
// records the send side of the flow on its telemetry recorder; the receive
// side is recorded when the matching Recv consumes the message, so a
// stitched timeline links the two ranks.
type CtxSender interface {
	SendCtx(to, tag int, payload []byte, tc traceid.Context) error
}

// SendCtx sends through c's CtxSender when the fabric implements it,
// falling back to a plain Send (dropping the context) otherwise. It is how
// the compositor attributes messages to (step, tile, epoch) without every
// fabric being required to carry contexts.
func SendCtx(c Comm, to, tag int, payload []byte, tc traceid.Context) error {
	if cs, ok := c.(CtxSender); ok {
		return cs.SendCtx(to, tag, payload, tc)
	}
	return c.Send(to, tag, payload)
}

// ErrDeadline is the sentinel matched (via errors.Is) by every
// *DeadlineError a fabric returns from its timeout receives.
var ErrDeadline = errors.New("comm: receive deadline exceeded")

// DeadlineError reports a receive that timed out. It records which messages
// were still outstanding so callers can attribute the stall to a rank.
type DeadlineError struct {
	Rank    int           // the waiting rank
	Keys    []MsgKey      // the (source, tag) pairs that never arrived
	Timeout time.Duration // the deadline that elapsed
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: rank %d: no message for %v within %v (deadline exceeded)",
		e.Rank, e.Keys, e.Timeout)
}

// Is reports a match against ErrDeadline.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// ErrPeer is the sentinel matched (via errors.Is) by every *PeerError.
var ErrPeer = errors.New("comm: peer failed")

// PeerError reports that a specific peer rank failed (dead connection,
// corrupt frame stream, injected death): receives from that rank cannot
// complete, while traffic with other ranks stays unaffected.
type PeerError struct {
	Rank int // the failed peer
	Err  error
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("comm: peer rank %d failed: %v", e.Rank, e.Err)
}

// Is reports a match against ErrPeer.
func (e *PeerError) Is(target error) bool { return target == ErrPeer }

// Unwrap exposes the underlying transport error.
func (e *PeerError) Unwrap() error { return e.Err }

// IsRecoverable reports whether err is a per-message or per-peer failure a
// degradation policy may absorb (a missed deadline or a dead peer), as
// opposed to a fault of the local endpoint itself.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrPeer)
}

// MsgKey identifies one expected message for RecvAnyTimeout.
type MsgKey struct {
	From, Tag int
}

// Counters is a snapshot of one endpoint's traffic.
type Counters struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// String implements fmt.Stringer with the one-line form the binaries print
// in their end-of-run summaries.
func (c Counters) String() string {
	return fmt.Sprintf("sent %d msgs/%d bytes, recv %d msgs/%d bytes",
		c.MsgsSent, c.BytesSent, c.MsgsRecv, c.BytesRecv)
}

// Add returns the element-wise sum of two counters.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		MsgsSent:  c.MsgsSent + o.MsgsSent,
		BytesSent: c.BytesSent + o.BytesSent,
		MsgsRecv:  c.MsgsRecv + o.MsgsRecv,
		BytesRecv: c.BytesRecv + o.BytesRecv,
	}
}

// Reserved tag bases for collectives. Each collective call site burns one
// sequence number per invocation, so tags never collide across consecutive
// collectives. User tags must be >= 0.
const (
	tagBarrier = -1 - iota*1_000_000
	tagGather
)

// Sequencer hands out collective sequence numbers. Every rank must invoke
// the collectives in the same order, which makes the per-rank counter
// globally consistent without communication.
type Sequencer struct {
	barrier int
	gather  int
}

// BarrierTimeout blocks until all ranks have entered it, using a
// dissemination pattern: round j exchanges a token at distance 2^j, needing
// only ceil(log2 P) rounds for any P. Every round's receive is bounded by
// the timeout (<= 0 waits forever): a dead peer surfaces as a recoverable
// error after at most ceil(log2 P) timeouts instead of pinning the caller
// forever.
func BarrierTimeout(c Comm, seq *Sequencer, timeout time.Duration) error {
	p := c.Size()
	seq.barrier++
	if p == 1 {
		return nil
	}
	base := tagBarrier - seq.barrier*64
	for j, dist := 0, 1; dist < p; j, dist = j+1, dist*2 {
		to := (c.Rank() + dist) % p
		from := (c.Rank() - dist%p + p) % p
		if err := c.Send(to, base-j, nil); err != nil {
			return fmt.Errorf("barrier send: %w", err)
		}
		if _, err := c.RecvTimeout(from, base-j, timeout); err != nil {
			return fmt.Errorf("barrier recv: %w", err)
		}
	}
	return nil
}

// GatherTimeout collects each rank's payload at root. On root it returns a
// slice indexed by rank (root's own slot holds its local payload); on other
// ranks it returns nil. The root collects in arrival order and grants at
// most `timeout` of silence between arrivals (<= 0 waits forever). When
// ranks are unreachable the root returns the partial result — missing ranks
// hold nil — alongside the first recoverable error, so a teardown path can
// report the survivors' data instead of hanging.
func GatherTimeout(c Comm, seq *Sequencer, root int, payload []byte, timeout time.Duration) ([][]byte, error) {
	seq.gather++
	tag := tagGather - seq.gather*64
	if c.Rank() != root {
		return nil, c.Send(root, tag, payload)
	}
	out := make([][]byte, c.Size())
	out[root] = payload
	var keys []MsgKey
	for r := 0; r < c.Size(); r++ {
		if r != root {
			keys = append(keys, MsgKey{From: r, Tag: tag})
		}
	}
	var firstErr error
	for len(keys) > 0 {
		from, _, data, err := c.RecvAnyTimeout(keys, timeout)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("gather: %w", err)
			}
			var perr *PeerError
			if errors.As(err, &perr) {
				keys = dropKeysFrom(keys, perr.Rank)
				continue
			}
			if errors.Is(err, ErrDeadline) {
				break
			}
			return nil, fmt.Errorf("gather: %w", err)
		}
		out[from] = data
		keys = dropKeysFrom(keys, from)
	}
	return out, firstErr
}
