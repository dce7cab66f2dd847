package mbox

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// Port is what every fabric endpoint is over its Mailbox, whatever carries
// the messages there: the receive calls of comm.Comm, the traffic tallies and
// the trace-context mint. A fabric embeds one, fills in the exported fields
// before first use and adds Send and Close; a Port must not be copied.
type Port struct {
	Box      *Mailbox
	Me, P    int                 // this rank, of how many
	Loopback bool                // whether a rank may name itself as a source
	Tel      *telemetry.Recorder // nil: no causal flows are recorded, no contexts carried

	mu       sync.Mutex // sends and receives tally from different goroutines
	counters comm.Counters
	seq      atomic.Uint32 // trace-context sequence mint for this rank's sends
}

// Rank implements comm.Comm.
func (p *Port) Rank() int { return p.Me }

// Size implements comm.Comm.
func (p *Port) Size() int { return p.P }

// Recv implements comm.Comm.
func (p *Port) Recv(from, tag int) ([]byte, error) {
	_, _, payload, err := p.RecvAny([]Key{{From: from, Tag: tag}}, time.Time{})
	return payload, err
}

// RecvAny implements comm.Comm. Only a timeout copies the keys, into the
// error that outlives the call; a receive that succeeds allocates nothing.
func (p *Port) RecvAny(keys []Key, deadline time.Time) (int, int, []byte, error) {
	for _, k := range keys {
		if err := p.checkSource(k.From); err != nil {
			return 0, 0, nil, err
		}
	}
	msg, err := p.Box.GetAnyUntil(keys, deadline)
	if errors.Is(err, ErrTimeout) {
		err = &comm.DeadlineError{Rank: p.Me, Keys: append([]Key(nil), keys...), Deadline: deadline}
	}
	return msg.From, msg.Tag, msg.Payload, p.received(msg, err)
}

func (p *Port) checkSource(from int) error {
	if from < 0 || from >= p.P || from == p.Me && !p.Loopback {
		return fmt.Errorf("mbox: rank %d: invalid source rank %d", p.Me, from)
	}
	return nil
}

// received tallies a message the mailbox handed over and records the receive
// side of its causal flow — at the comm boundary, so the flow point lands
// inside the application's receive span and a replay the mailbox refused
// never records one. A failed receive passes through.
func (p *Port) received(msg Message, err error) error {
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.counters.MsgsRecv++
	p.counters.BytesRecv += int64(len(msg.Payload))
	p.mu.Unlock()
	if p.Tel != nil && msg.Trace.Valid() {
		p.Tel.FlowRecv(p.Me, msg.From, msg.Trace.ID(), msg.Trace.Step, msg.Trace.Tile)
	}
	return nil
}

// ResetCounters zeroes the traffic tallies, for a fabric that runs an
// endpoint again: Counters then reports the new run alone.
func (p *Port) ResetCounters() {
	p.mu.Lock()
	p.counters = comm.Counters{}
	p.mu.Unlock()
}

// Counters implements comm.Comm.
func (p *Port) Counters() comm.Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// StartSend is the hand-off point of an outgoing message's causal flow: it
// returns the context the message travels with — tc, minted here (origin =
// this rank) if it has no sequence yet — after recording the send side. With
// telemetry disabled no context is carried at all.
func (p *Port) StartSend(to int, tc traceid.Context) traceid.Context {
	if p.Tel == nil {
		return traceid.Context{}
	}
	if !tc.Valid() {
		tc.Origin, tc.Seq = p.Me, p.seq.Add(1)
	}
	p.Tel.FlowSend(p.Me, to, tc.ID(), tc.Step, tc.Tile)
	return tc
}

// Sent tallies one delivered send of n payload bytes.
func (p *Port) Sent(n int) {
	p.mu.Lock()
	p.counters.MsgsSent++
	p.counters.BytesSent += int64(n)
	p.mu.Unlock()
}
