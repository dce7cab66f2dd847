// The step interpreter. A schedule is data — per step: halve, send, receive
// and composite, halve — and this file holds the one loop that executes it
// against a fragment store, whoever runs it: the synchronous run (one
// whole-image store, the rank's whole plan), a recovery epoch (the same over
// a repaired plan, replica layers staged first) and a pipelined tile worker
// (a tile store, the tile's plan). Every one of them takes its messages from
// the fabric through the inbox below; the loop has one seam, what a failure
// means (the failPolicy of policy.go).
package compositor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
)

// stepRun is what one execution of the step loop runs with.
type stepRun struct {
	c      comm.Comm
	cdc    codec.Codec
	rep    *Report
	tel    *telemetry.Recorder
	scr    *runScratch
	pol    failPolicy
	epoch  int // scopes the tags, so a re-execution never consumes an aborted attempt's traffic
	layers int // the schedule's P: what a complete block is composited over

	// The loop's message source, held by value so that a run's context stays
	// on its goroutine's stack.
	in fabricInbox
}

// run executes plan against st: stage the replica layers a repaired plan
// assigns this rank (owners[l] is the rank contributing layer l, -1 absent;
// nil owners stage nothing), then per step pre-halve, issue every send, take
// and composite the receives until none is pending, post-halve; then
// coalesce, let the policy blank or refuse what never arrived, and require
// every held block complete.
func (x *stepRun) run(st *fragstore.Store, plan []schedule.TileStep, owners []int, replicas map[int]*raster.Image) error {
	me := x.rep.Rank
	for l, o := range owners {
		if o != me || l == me {
			continue
		}
		img := replicas[l]
		if img == nil {
			// Assigned a dead rank's layer without holding its replica: the
			// layer stays absent, to be blanked with the other gaps below. A
			// Recover attempt cannot certify that (nor can a retry fix it: the
			// budget drains and the fallback epoch blanks the layer).
			if x.pol.on(evIncomplete, nil, nil) == abortAttempt {
				return errAborted
			}
			continue
		}
		overPix, err := st.InsertLayer(l, img)
		if err != nil {
			return err
		}
		x.rep.OverPixels += overPix
		x.tel.Add(me, telemetry.CtrOverPixels, overPix)
	}

	pending := x.scr.pending
	for i := range plan {
		ts := &plan[i]
		si := ts.Step
		x.in.enter(si)
		for h := 0; h < ts.Pre; h++ {
			st.HalveAll()
		}
		// Issue every send eagerly, then take the receives in arrival order:
		// the fabric buffers, so a stepwise schedule cannot deadlock, and
		// arrival-order processing avoids head-of-line blocking when several
		// messages are outstanding.
		for _, tr := range ts.Sends {
			if err := send(x, st, si, tr); err != nil {
				err = fmt.Errorf("compositor: step %d: %w", si+1, err)
				if err = x.pol.rule(x.rep, false, evSendFailed, err, suspectsOf(err, tr.To)); err != nil {
					return err
				}
			}
		}
		clear(pending)
		for _, tr := range ts.Recvs {
			pending[comm.MsgKey{From: tr.From, Tag: tagFor(x.epoch, si, tr.Block)}] = tr
		}
		for len(pending) > 0 {
			tr, payload, err := x.in.next(si, pending)
			if err != nil {
				return fmt.Errorf("compositor: step %d: %w", si+1, err)
			}
			if payload == nil {
				continue
			}
			if err := merge(x, st, si, tr, payload); err != nil {
				if !errors.Is(err, codec.ErrCorrupt) {
					return err
				}
				// A corrupt payload is discarded like a lost message; the
				// sender is alive, so a clean re-execution may succeed.
				if err = x.pol.rule(x.rep, false, evCorrupt, err, nil); err != nil {
					return err
				}
			}
		}
		for h := 0; h < ts.Post; h++ {
			st.HalveAll()
		}
	}

	// A repaired plan stages buddy pairs as adjacent fragments that no
	// transfer ever composites (zero-step meshes, P=2); coalesce before the
	// completeness check.
	overPix, err := st.CoalesceAll()
	if err != nil {
		return err
	}
	x.rep.OverPixels += overPix
	x.tel.Add(me, telemetry.CtrOverPixels, overPix)
	if err := st.CheckComplete(x.layers); err != nil {
		// The plan finished but some block is not fully composited: a
		// contribution vanished.
		switch x.pol.on(evIncomplete, err, nil) {
		case abortAttempt:
			return errAborted
		case countMissing:
			missing, err := st.FillGaps(x.layers)
			if err != nil {
				return err
			}
			x.rep.MissingLayerPix += missing
			x.rep.Degraded = x.rep.Degraded || missing > 0
		}
		if err := st.CheckComplete(x.layers); err != nil {
			return err
		}
	}
	x.rep.FinalBlocks += st.Len()
	return nil
}

// fabricInbox takes messages straight from the fabric: one arrival-order
// receive over the keys still pending plus, for a Recover attempt, the
// FAILED-notice keys, so a peer's abort wakes this rank at once instead of
// at its deadline. Deadlines, peer failures and notices are settled here,
// under the policy; the callers only see arrivals. Besides a step's
// transfers (next with the step index) it serves the gathers and the replica
// exchange (next with telemetry.StepNone).
//
// Several inboxes may wait on one endpoint at once — the tile workers of a
// pipelined run and its gather — each over its own keys: a message goes to
// the one inbox that names it, and one that came early waits in the mailbox.
// Such inboxes share the run's stop signal and its one deadline authority.
type fabricInbox struct {
	c       comm.Comm
	timeout time.Duration // Options.RecvTimeout, the receive deadline; zero waits forever
	health  *gray.Health
	tel     *telemetry.Recorder
	pol     failPolicy
	rep     *Report
	scr     *runScratch
	notices []comm.MsgKey
	onStep  func(si int) // Options.OnStep, or a tile worker's step entry
	il      *interleaver // Pipeline.InterleaveSeed: the release order of what has arrived

	// A blocked receive cannot be interrupted, so an inbox given a stop
	// channel waits in slices of pipePollChunk, adds them up towards its
	// deadline, and gives up with errPipeStop once the channel is closed.
	stop <-chan struct{}
	gate *deadlineGate // one ruling per silence across the inboxes of a run; nil: this inbox rules alone
}

func newFabricInbox(c comm.Comm, opts *Options, pol failPolicy, rep *Report, scr *runScratch, notices []comm.MsgKey) fabricInbox {
	return fabricInbox{c: c, timeout: opts.RecvTimeout, health: opts.Health,
		tel: opts.Telemetry, pol: pol, rep: rep, scr: scr, notices: notices, onStep: opts.OnStep,
		il: newInterleaver(opts.Pipeline.InterleaveSeed)}
}

// enter tells the inbox that the loop enters step si, before the step's
// halvings and sends.
func (in *fabricInbox) enter(si int) {
	if in.onStep != nil {
		in.onStep(si)
	}
}

// next blocks for one of the pending transfers of step si and removes from
// pending every transfer it settles: the one that arrived, returned with its
// payload, and those ruled missing, already tallied — a nil payload with a
// nil error means only such were settled. The error is errAborted,
// errPipeStop or fatal; a fatal one leaves pending as it was, for the
// post-mortem.
func (in *fabricInbox) next(si int, pending map[comm.MsgKey]schedule.Transfer) (schedule.Transfer, []byte, error) {
	gather := si == telemetry.StepNone
	if !gather {
		defer in.tel.End(in.tel.Begin(in.c.Rank(), telemetry.PhaseRecv, telemetry.CatNetwork, si))
	}
	quiet := time.Now() // since when nothing has arrived and no deadline was ruled on
	for len(pending) > 0 {
		keys := in.scr.keys[:0]
		for k := range pending {
			if !in.il.holds(k) {
				keys = append(keys, k)
			}
		}
		keys = append(keys, in.notices...)
		in.scr.keys = keys[:0]

		// Block until the deadline (zero: forever) — or only until the next
		// look at the stop channel, or not at all while the reorder buffer
		// holds a message to release.
		wait := time.Duration(0)
		if in.timeout > 0 {
			wait = max(in.timeout-time.Since(quiet), time.Nanosecond)
		}
		if in.stop != nil {
			select {
			case <-in.stop:
				return schedule.Transfer{}, nil, errPipeStop
			default:
			}
			wait = sooner(wait, pipePollChunk)
		}
		if in.il.len() > 0 {
			wait = time.Nanosecond
		}
		from, tag, payload, err := in.c.RecvAnyTimeout(keys, wait)
		timedOut := errors.Is(err, comm.ErrDeadline)
		switch {
		case err == nil:
			if _, ok := pending[comm.MsgKey{From: from, Tag: tag}]; !ok {
				// Not a pending transfer, so a notice: a peer already broadcast
				// this epoch's failure, no need to repeat it.
				bufpool.Put(payload)
				return schedule.Transfer{}, nil, errAborted
			}
			in.health.Ok(from)
			quiet = time.Now()
			if in.il != nil {
				in.il.push(from, tag, payload)
				continue // whatever else has arrived joins it before one is released
			}
		case in.il.len() > 0:
			from, tag, payload = in.il.pop()
		case !timedOut && !errors.Is(err, comm.ErrPeer):
			return schedule.Transfer{}, nil, err
		case timedOut && (in.timeout <= 0 || time.Since(quiet) < in.timeout):
			continue // a slice of the wait, not its end
		default:
			ev, suspects := evDeadline, sendersOf(pending)
			var perr *comm.PeerError
			if errors.As(err, &perr) {
				ev, suspects = evPeerDied, []int{perr.Rank}
			}
			v := in.gate.rule(in.pol, ev, err, suspects, quiet)
			quiet = time.Now()
			switch v {
			case keepWaiting:
				continue
			case fatal:
				return schedule.Transfer{}, nil, err
			}
			// Only a failed peer's messages are hopeless; a deadline loses
			// everything still pending.
			lost := 0
			for k := range pending {
				if perr != nil && k.From != perr.Rank {
					continue
				}
				delete(pending, k)
				lost++
			}
			if v == abortAttempt {
				return schedule.Transfer{}, nil, errAborted
			}
			in.rep.lose(lost, gather)
			continue
		}
		key := comm.MsgKey{From: from, Tag: tag}
		tr := pending[key]
		delete(pending, key)
		return tr, payload, nil
	}
	return schedule.Transfer{}, nil, nil
}

// sooner is the shorter of two waits, where zero waits forever.
func sooner(a, b time.Duration) time.Duration {
	if a == 0 || b < a {
		return b
	}
	return a
}

// deadlineGate is a rank's one deadline authority when several inboxes wait
// on its endpoint: their deadlines expire together on one silent peer, and
// that silence is one deadline hit, one Health miss per suspect and one
// grace decision — not one per waiting tile. An expired wait is put to the
// policy for the suspects no ruling has covered since the wait fell silent;
// a wait with none left adopts the last verdict.
type deadlineGate struct {
	mu      sync.Mutex
	ruledAt map[int]time.Time // per peer: when a deadline last counted against it
	last    verdict
}

// rule is failPolicy.on behind the gate; events other than deadlines, and a
// nil gate, pass straight through.
func (g *deadlineGate) rule(pol failPolicy, ev event, err error, suspects []int, quiet time.Time) verdict {
	if g == nil || ev != evDeadline {
		return pol.on(ev, err, suspects)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh := suspects[:0]
	for _, s := range suspects {
		if !g.ruledAt[s].After(quiet) {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) == 0 {
		return g.last
	}
	if g.ruledAt == nil {
		g.ruledAt = map[int]time.Time{}
	}
	now := time.Now()
	for _, s := range fresh {
		g.ruledAt[s] = now
	}
	g.last = pol.on(ev, err, fresh)
	return g.last
}

// attempt is what tells a Recover policy's epoch from a plain run: the zero
// value is epoch 0 of the original schedule with every rank alive.
type attempt struct {
	epoch    int
	owners   []int                 // the repaired plan's layer owners; nil: every rank stages its own alone
	replicas map[int]*raster.Image // the ward sub-images this rank holds
	dead     []bool                // ranks the gather does not wait for; nil: none
	notices  []comm.MsgKey         // this epoch's FAILED-notice keys, which abort the attempt on arrival
}

// runSync executes one bulk-synchronous epoch: the step loop over this
// rank's whole plan and one whole-image store, every message taken straight
// from the fabric, then the gather.
func runSync(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options, cdc codec.Codec,
	rep *Report, pol failPolicy, at attempt, scr *runScratch) (*raster.Image, error) {
	me := c.Rank()
	st := &scr.store
	st.Restage(me, sched.TileSpans(local.NPixels()), local)
	// Every exit is past the last use of the store's memory: the gather has
	// copied the composited blocks onto the wire or into the final image.
	defer st.Release()
	x := &stepRun{c: c, cdc: cdc, rep: rep, tel: opts.Telemetry, scr: scr, pol: pol,
		epoch: at.epoch, layers: sched.P, in: newFabricInbox(c, &opts, pol, rep, scr, at.notices)}
	defer x.in.il.release()
	if err := x.run(st, sched.RankPlan(me), at.owners, at.replicas); err != nil {
		return nil, err
	}
	if opts.GatherRoot < 0 {
		return nil, nil
	}
	defer x.tel.End(x.tel.Begin(me, telemetry.PhaseGather, telemetry.CatNetwork, telemetry.StepNone))
	return gather(x, st, opts.GatherRoot, at.dead, dst, local.W, local.H)
}

// gather ships every rank's final blocks to root and assembles the final
// image there, in arrival order, into gatherRaster(dst, w, h). Ranks already
// agreed dead are not waited for; a rank whose blocks never arrive is the
// policy's call — under compose-partial its pixels stay blank and it is
// counted in rep.MissingGathers instead of stalling the root forever.
func gather(x *stepRun, st *fragstore.Store, root int, dead []bool, dst *raster.Image, w, h int) (*raster.Image, error) {
	c, tag := x.c, gatherTag(x.epoch)
	if c.Rank() != root {
		err := c.Send(root, tag, encodeFinalBlocks(x.scr, st))
		if err != nil {
			err = fmt.Errorf("compositor: gather send: %w", err)
			err = x.pol.rule(x.rep, true, evSendFailed, err, suspectsOf(err, root))
		}
		return nil, err
	}
	out := gatherRaster(dst, w, h)
	covered := st.CopyInto(out) // the root's own blocks never become a message
	pending := x.scr.pending
	clear(pending)
	for r := 0; r < c.Size(); r++ {
		if r != root && (dead == nil || !dead[r]) {
			pending[comm.MsgKey{From: r, Tag: tag}] = schedule.Transfer{From: r}
		}
	}
	if err := collect(&x.in, out, st.Tiles(), pending, func(_, n int) { covered += n }); err != nil {
		return nil, err
	}
	if err := gatherShort(x.pol, x.rep, covered, w*h); err != nil {
		return nil, err
	}
	return out, nil
}

// gatherRaster is the blank w×h raster a gather root assembles the final
// image into: dst, cleared, when it has that size, or else a new one.
func gatherRaster(dst *raster.Image, w, h int) *raster.Image {
	if dst == nil || dst.W != w || dst.H != h {
		return raster.New(w, h)
	}
	clear(dst.Pix)
	return dst
}

// gatherShort puts a gathered image with uncovered pixels that nothing
// ruled missing accounts for to the policy; nil when there is none.
func gatherShort(pol failPolicy, rep *Report, covered, npix int) error {
	if covered == npix || rep.Degraded {
		return nil
	}
	err := fmt.Errorf("compositor: gathered blocks cover %d of %d pixels", covered, npix)
	return pol.rule(rep, true, evGatherShort, err, nil)
}

// collect receives the gather messages pending names and inserts their
// blocks into out, in arrival order, telling landed how many pixels each
// one covered of which tile (the Block.Tile of its pending entry).
func collect(in *fabricInbox, out *raster.Image, tiles []raster.Span,
	pending map[comm.MsgKey]schedule.Transfer, landed func(tile, n int)) error {
	for len(pending) > 0 {
		tr, part, err := in.next(telemetry.StepNone, pending)
		if err != nil {
			return fmt.Errorf("compositor: gather: %w", err)
		}
		if part == nil {
			continue
		}
		n, err := insertFinalBlocks(out, tiles, part, tr.From)
		bufpool.Put(part) // InsertSpan copied the pixels out
		if err != nil {
			// A corrupt gather payload is a rank's blocks gone missing, as a
			// corrupt block message is a transfer: the policy's call.
			if err = in.pol.rule(in.rep, true, evCorrupt, err, nil); err != nil {
				return err
			}
			continue
		}
		landed(tr.Block.Tile, n)
	}
	return nil
}
