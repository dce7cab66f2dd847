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
// given — it never copies — and forgets it entirely once a Get retrieves
// it, so payload buffer ownership transfers Put → mailbox → Get caller and
// the caller may recycle the buffer after use. Trace carries the message's
// causal trace context (zero when the sender attached none); it travels
// with the message so the consuming rank can record the receive side of
// the flow.
type Message struct {
	From, Tag int
	Payload   []byte
	Trace     traceid.Context
}

// Mailbox stores messages until a matching Get retrieves them. The zero
// value is not ready; use New.
type Mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
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

// ErrTimeout is reported by GetUntil/GetAnyUntil when the deadline elapses
// before a matching message arrives. The message, should it arrive later,
// stays retrievable.
var ErrTimeout = errors.New("mbox: receive timed out")

// Put stores a message, waking any waiting Get.
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

// Get blocks until a message with the given source and tag is available and
// removes and returns its payload.
func (m *Mailbox) Get(from, tag int) ([]byte, error) {
	return m.GetUntil(from, tag, time.Time{})
}

// GetUntil is Get with a deadline: once the deadline passes without a match
// it returns ErrTimeout. A zero deadline waits forever.
func (m *Mailbox) GetUntil(from, tag int, deadline time.Time) ([]byte, error) {
	msg, err := m.GetMsgUntil(from, tag, deadline)
	return msg.Payload, err
}

// GetMsgUntil is GetUntil returning the whole Message, so callers that need
// the trace context (the fabrics' flow recording) get it without a second
// lookup.
func (m *Mailbox) GetMsgUntil(from, tag int, deadline time.Time) (Message, error) {
	stop := m.wakeAt(deadline)
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, p := range m.pending {
			if p.From == from && p.Tag == tag {
				m.remove(i)
				return p, nil
			}
		}
		if m.closed {
			return Message{}, m.failure()
		}
		if err := m.srcErr[from]; err != nil {
			return Message{}, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return Message{}, ErrTimeout
		}
		m.cond.Wait()
	}
}

// remove deletes pending[i] preserving order and zeroes the vacated tail
// slot, so the mailbox drops its payload reference the moment a message is
// handed to a Get caller (who may recycle the buffer immediately).
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
	stop := m.wakeAt(deadline)
	defer stop()
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
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return Message{}, ErrTimeout
		}
		m.cond.Wait()
	}
}

// wakeAt arranges a Broadcast when the deadline passes, so a Get blocked in
// cond.Wait re-checks and observes the timeout. It returns a stop function;
// a zero deadline is a no-op.
func (m *Mailbox) wakeAt(deadline time.Time) func() {
	if deadline.IsZero() {
		return func() {}
	}
	t := time.AfterFunc(time.Until(deadline), func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	return func() { t.Stop() }
}

// Fail marks one source as dead: pending messages from it stay retrievable,
// but a Get that would otherwise block on that source returns err instead.
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
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *Mailbox) failure() error {
	if m.err != nil {
		return m.err
	}
	return ErrClosed
}
