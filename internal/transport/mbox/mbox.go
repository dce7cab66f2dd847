// Package mbox provides the tag-matching mailbox shared by the transport
// fabrics: an unbounded message store with (source, tag) matched retrieval.
// Unbounded buffering gives the eager-send semantics the stepwise
// composition schedules assume — a send never blocks on the receiver.
package mbox

import (
	"errors"
	"sync"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/traceid"
)

// Message is one stored message. The mailbox stores the Payload slice as
// given — it never copies — and forgets it entirely once GetAnyUntil
// retrieves it, so payload buffer ownership transfers Put → mailbox →
// receiver and the receiver may recycle the buffer after use. Trace carries
// the message's causal trace context (zero when the sender attached none);
// it travels with the message so the consuming rank can record the receive
// side of the flow.
type Message struct {
	From, Tag int
	Payload   []byte
	Trace     traceid.Context
}

// Mailbox stores messages until a matching GetAnyUntil retrieves them. The
// zero value is not ready; use New.
type Mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// The mailbox's one deadline timer, built by the first wait that needs
	// it and re-armed to the earliest deadline a waiter asks for; armed is
	// the deadline it is set to, zero once it has fired or never was set.
	timer   *time.Timer
	armed   time.Time
	pending []Message
	closed  bool
	err     error
	srcErr  map[int]error
	lastSeq map[int]uint64 // per-source dedup window high-water (PutSeq)
}

// New returns an empty open mailbox.
func New() *Mailbox {
	m := &Mailbox{srcErr: map[int]error{}, lastSeq: map[int]uint64{}}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// ErrClosed is reported by operations on a closed mailbox.
var ErrClosed = errors.New("mbox: mailbox closed")

// ErrTimeout is reported by GetAnyUntil when the deadline elapses
// before a matching message arrives. The message, should it arrive later,
// stays retrievable.
var ErrTimeout = errors.New("mbox: receive timed out")

// Put stores a message, waking any waiting receiver.
func (m *Mailbox) Put(msg Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.failure()
	}
	m.pending = append(m.pending, msg)
	m.cond.Broadcast()
	return nil
}

// PutSeq stores msg only if seq advances the per-source dedup window: a
// reliable session numbers every data frame and replays unacknowledged
// ones after a reconnect, so the same (source, seq) may be presented more
// than once — and across two connections racing through a resume. The
// window is the single authority on acceptance: a seq at or below the
// source's high-water mark is a duplicate and is refused (accepted=false,
// payload ownership stays with the caller). Sequence numbers start at 1;
// seq 0 never advances the window.
func (m *Mailbox) PutSeq(msg Message, seq uint64) (accepted bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, m.failure()
	}
	if seq <= m.lastSeq[msg.From] {
		return false, nil
	}
	m.lastSeq[msg.From] = seq
	m.pending = append(m.pending, msg)
	m.cond.Broadcast()
	return true, nil
}

// remove deletes pending[i] preserving order and zeroes the vacated tail
// slot, so the mailbox drops its payload reference the moment a message is
// handed to a receiver (who may recycle the buffer immediately).
func (m *Mailbox) remove(i int) {
	copy(m.pending[i:], m.pending[i+1:])
	last := len(m.pending) - 1
	m.pending[last] = Message{}
	m.pending = m.pending[:last]
}

// Key identifies one expected message. It is an alias for comm.MsgKey so
// fabrics can pass their []comm.MsgKey receive sets straight through
// without a per-call conversion allocation.
type Key = comm.MsgKey

// GetAnyUntil blocks until a message matching any of the keys is available
// and returns it — the arrival-order receive used to avoid head-of-line
// blocking when several messages are outstanding. Once the deadline passes
// without a match it returns ErrTimeout; a zero deadline waits forever.
func (m *Mailbox) GetAnyUntil(keys []Key, deadline time.Time) (Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		// Receive sets are schedule fan-ins — a handful of keys — so a
		// linear scan beats building a per-call map (and allocates nothing).
		for i, p := range m.pending {
			for _, k := range keys {
				if k.From == p.From && k.Tag == p.Tag {
					m.remove(i)
					return p, nil
				}
			}
		}
		if m.closed {
			return Message{}, m.failure()
		}
		for _, k := range keys {
			if err := m.srcErr[k.From]; err != nil {
				return Message{}, err
			}
		}
		if err := m.wait(deadline); err != nil {
			return Message{}, err
		}
	}
}

// wait blocks in cond.Wait until the next Broadcast, or reports ErrTimeout
// once the deadline has passed (a zero deadline never passes). A waiter whose
// deadline comes before the one the mailbox's timer is armed to (or finds it
// unarmed) re-arms it, so the timer always fires by the earliest deadline of
// those waiting and wakes them all: each re-checks, and one whose own
// deadline has not passed re-arms it again. A receive whose message is
// already queued never waits and so never touches the timer, and a mailbox
// allocates its timer once, on the first wait that needs one. Called with mu
// held; the timer's Broadcast takes mu, so it cannot slip in between the
// deadline check and the Wait and be lost.
func (m *Mailbox) wait(deadline time.Time) error {
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return ErrTimeout
		}
		if m.armed.IsZero() || deadline.Before(m.armed) {
			m.armed = deadline
			if m.timer == nil {
				m.timer = time.AfterFunc(d, m.wake)
			} else {
				m.timer.Reset(d)
			}
		}
	}
	m.cond.Wait()
	return nil
}

// wake is what the deadline timer runs: it disarms the timer and wakes every
// waiter to re-check its own deadline.
func (m *Mailbox) wake() {
	m.mu.Lock()
	m.armed = time.Time{}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Fail marks one source as dead: pending messages from it stay retrievable,
// but a receive that would otherwise block on that source returns err instead.
// Other sources are unaffected.
func (m *Mailbox) Fail(from int, err error) {
	m.mu.Lock()
	if m.srcErr[from] == nil {
		m.srcErr[from] = err
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Close marks the mailbox closed, failing pending and future operations
// with ErrClosed (or cause, if non-nil).
func (m *Mailbox) Close(cause error) {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.err = cause
	}
	if m.timer != nil {
		m.timer.Stop()
		m.armed = time.Time{}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Idle reports whether the mailbox is as New left it: open, empty, with no
// source marked failed and no dedup window advanced — nothing one user of it
// could leave behind for the next.
func (m *Mailbox) Idle() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed && len(m.pending) == 0 && len(m.srcErr) == 0 && len(m.lastSeq) == 0
}

func (m *Mailbox) failure() error {
	if m.err != nil {
		return m.err
	}
	return ErrClosed
}
