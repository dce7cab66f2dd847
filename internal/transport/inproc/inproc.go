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
// each rank's goroutine its endpoint from Endpoint, or run a parallel
// section over all of them with Run — as often as it stays Idle.
type Fabric struct {
	size  int
	boxes []atomic.Pointer[mbox.Mailbox] // atomic: Reattach swaps a box while senders read it
	eps   []*endpoint                    // each rank's current incarnation
	tel   *telemetry.Recorder

	// What a run of the fabric's ranks shares: their errors and their join.
	errs []error
	wg   sync.WaitGroup
}

// SetTelemetry attaches a recorder: every message hand-off records the send
// side of its causal flow and every consuming Recv the receive side, so a
// trace of the run carries cross-rank flow edges. Call while no rank runs; a
// nil recorder (the default) costs one pointer test per message.
func (f *Fabric) SetTelemetry(rec *telemetry.Recorder) {
	f.tel = rec
	for _, ep := range f.eps {
		ep.Tel = rec
	}
}

// New creates a fabric with p ranks.
func New(p int) *Fabric {
	if p < 1 {
		panic("inproc: fabric needs p >= 1")
	}
	f := &Fabric{size: p, boxes: make([]atomic.Pointer[mbox.Mailbox], p), eps: make([]*endpoint, p), errs: make([]error, p)}
	for r := range f.boxes {
		box := mbox.New()
		f.boxes[r].Store(box)
		f.eps[r] = f.endpoint(r, box)
	}
	return f
}

// Endpoint returns rank r's communicator endpoint.
func (f *Fabric) Endpoint(r int) comm.Comm {
	if r < 0 || r >= f.size {
		panic("inproc: rank out of range")
	}
	return f.eps[r]
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
	f.eps[r] = f.endpoint(r, box)
	return f.eps[r]
}

// Idle reports whether nothing of a finished run is left in the fabric:
// every mailbox is open and empty, with no source marked failed and no dedup
// state. Only an idle fabric may run again, for no message of one run can
// then reach the next. Call while no rank runs.
func (f *Fabric) Idle() bool {
	for r := range f.boxes {
		if !f.boxes[r].Load().Idle() {
			return false
		}
	}
	return true
}

// Close closes every rank's mailbox: pending and future receives fail, and
// a send to any rank is a PeerError.
func (f *Fabric) Close() {
	for r := range f.boxes {
		f.boxes[r].Load().Close(nil)
	}
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

// Run spawns fn for every rank on its own goroutine, over the fabric's
// endpoints, and waits for all of them, returning the combined error. It
// closes nothing: a rank that returns leaves its mailbox open, so the fabric
// can run again if it is Idle afterwards. The endpoints' traffic tallies
// restart at zero. One Run at a time.
func (f *Fabric) Run(fn func(c comm.Comm) error) error {
	return f.run(fn, false)
}

// Run runs fn on every rank of a fresh p-rank fabric, closing each rank's
// endpoint as soon as its fn returns (DESIGN §3), and returns the combined
// error. It is the standard way to execute a one-off parallel section on the
// in-process fabric.
func Run(p int, fn func(c comm.Comm) error) error {
	return RunTel(p, nil, fn)
}

// RunTel is Run with a telemetry recorder attached to the fabric, so every
// cross-rank message of the parallel section records its causal flow.
func RunTel(p int, rec *telemetry.Recorder, fn func(c comm.Comm) error) error {
	f := New(p)
	f.SetTelemetry(rec)
	return f.run(fn, true)
}

// run is Fabric.Run; with closeOnReturn each rank's endpoint closes as its
// fn returns, which leaves the fabric closed once run does.
func (f *Fabric) run(fn func(c comm.Comm) error, closeOnReturn bool) error {
	for _, ep := range f.eps {
		ep.ResetCounters()
	}
	f.wg.Add(f.size)
	for _, ep := range f.eps {
		go f.rank(ep, fn, closeOnReturn)
	}
	f.wg.Wait()
	err := errors.Join(f.errs...)
	clear(f.errs)
	return err
}

func (f *Fabric) rank(ep *endpoint, fn func(c comm.Comm) error, closeOnReturn bool) {
	defer f.wg.Done()
	if closeOnReturn {
		defer ep.Close()
	}
	f.errs[ep.Me] = fn(ep)
}
