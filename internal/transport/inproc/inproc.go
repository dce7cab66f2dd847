// Package inproc implements the comm.Comm fabric inside a single process:
// every rank is a goroutine and messages travel through shared mailboxes.
// It is the fabric used by the wall-clock benchmarks and by every test that
// runs a composition in parallel.
package inproc

import (
	"errors"
	"sync"
	"sync/atomic"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
	"rtcomp/internal/transport/mbox"
)

// Fabric is a P-way in-process communicator. Create one with New and hand
// each rank's goroutine its endpoint from Endpoint.
type Fabric struct {
	size  int
	boxes []atomic.Pointer[mbox.Mailbox] // atomic: Reattach swaps a box while senders read it
	tel   *telemetry.Recorder
}

// SetTelemetry attaches a recorder: every message hand-off records the send
// side of its causal flow and every consuming Recv the receive side, so a
// trace of the run carries cross-rank flow edges. Call before any endpoint
// is created; a nil recorder (the default) costs one pointer test per message.
func (f *Fabric) SetTelemetry(rec *telemetry.Recorder) { f.tel = rec }

// New creates a fabric with p ranks.
func New(p int) *Fabric {
	if p < 1 {
		panic("inproc: fabric needs p >= 1")
	}
	f := &Fabric{size: p, boxes: make([]atomic.Pointer[mbox.Mailbox], p)}
	for i := range f.boxes {
		f.boxes[i].Store(mbox.New())
	}
	return f
}

// Endpoint returns rank r's communicator endpoint.
func (f *Fabric) Endpoint(r int) comm.Comm {
	if r < 0 || r >= f.size {
		panic("inproc: rank out of range")
	}
	return f.endpoint(r, f.boxes[r].Load())
}

// Reattach replaces rank r's mailbox with a fresh one and returns a new
// endpoint bound to it — the fabric-level join point for a spare taking over
// a dead rank's slot. The dead endpoint stays bound to (and may still close)
// its own retired mailbox, so a deferred Close on the old goroutine can
// never shut the spare's fresh box; senders observe the swap atomically and
// their next Put lands in the new mailbox. Call only after the previous
// incarnation's goroutine has returned.
func (f *Fabric) Reattach(r int) comm.Comm {
	if r < 0 || r >= f.size {
		panic("inproc: rank out of range")
	}
	box := mbox.New()
	f.boxes[r].Store(box)
	return f.endpoint(r, box)
}

// endpoint is one incarnation of a rank: its receive half (mbox.Port) is
// pinned to the mailbox it was created with.
type endpoint struct {
	mbox.Port
	fabric *Fabric
}

var _ comm.Comm = (*endpoint)(nil)

func (f *Fabric) endpoint(r int, box *mbox.Mailbox) *endpoint {
	return &endpoint{fabric: f, Port: mbox.Port{Box: box, Me: r, P: f.size, Loopback: true, Tel: f.tel}}
}

// Send implements comm.Comm.
func (e *endpoint) Send(to, tag int, payload []byte) error {
	return e.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

// SendCtx implements comm.CtxSender: the hand-off into the destination
// mailbox is the flow's send point.
func (e *endpoint) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	if to < 0 || to >= e.fabric.size {
		return errors.New("inproc: destination rank out of range")
	}
	tc = e.StartSend(to, tc)
	// Copy so the sender may reuse its buffer, as with a real network. The
	// copy is pooled: ownership passes to the mailbox and on to the
	// receiver, who may return it to the pool after use.
	buf := bufpool.Get(len(payload))
	copy(buf, payload)
	if err := e.fabric.boxes[to].Load().Put(mbox.Message{From: e.Me, Tag: tag, Payload: buf, Trace: tc}); err != nil {
		bufpool.Put(buf)
		if errors.Is(err, mbox.ErrClosed) {
			// The destination rank has shut down its endpoint: that is a
			// peer failure, typed the same way the TCP fabric types it.
			return &comm.PeerError{Rank: to, Err: err}
		}
		return err
	}
	e.Sent(len(payload))
	return nil
}

// Close implements comm.Comm.
func (e *endpoint) Close() error {
	e.Box.Close(nil)
	return nil
}

// Run spawns fn for every rank on its own goroutine and waits for all of
// them, returning the combined error. It is the standard way to execute a
// parallel section on the in-process fabric.
func Run(p int, fn func(c comm.Comm) error) error {
	return RunTel(p, nil, fn)
}

// RunTel is Run with a telemetry recorder attached to the fabric, so every
// cross-rank message of the parallel section records its causal flow.
func RunTel(p int, rec *telemetry.Recorder, fn func(c comm.Comm) error) error {
	f := New(p)
	f.SetTelemetry(rec)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := f.Endpoint(r)
			defer ep.Close()
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
