// Speculative tile hedging: masking slow-but-alive ranks in the pipelined
// executor without recovery epochs or evictions.
//
// The buddy-replication scheme of the Recover policy already places a copy
// of every rank's initial sub-image on a deterministic buddy. For a
// transfer whose content is a pure function of the sender's initial layer —
// no receives merged into the sender's tile before the sending step — that
// buddy can reconstruct the exact bytes the sender would put on the wire:
// stage the replica, replay the halvings up to the sending step, take the
// block, encode it with the run's codec. First-step transfers of every
// schedule are pure (and all of direct-send is), which is precisely where a
// browned-out rank stalls the whole pipeline behind it.
//
// The hedge threshold is a receive timeout shorter than the deadline: when a
// tile worker's inbox finds a pure transfer of its step overdue by it, it
// sends a tiny request to the sender's buddy on a reserved hedge tag and
// adds the reply's key to the step's pending set, mapped to the same
// transfer; the buddy answers with the reconstruction; whichever copy
// arrives first settles the transfer and takes the other's key with it. One
// worker owns both keys, so the race needs no shared state. The original a
// hedge beat is still on its way, and its tag repeats next frame: the worker
// takes it off the fabric before the run returns. Output stays
// byte-identical to the synchronous oracle, the slow rank is never evicted,
// and a genuinely dead rank still falls through to the existing
// deadline/recovery machinery — hedging masks slowness, not death.
package compositor

import (
	"encoding/binary"
	"errors"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
	"rtcomp/internal/wire"
)

// Hedge tags live in the free bit-36 region of the tag space (step tags
// occupy bits 40+, the gather regions bits 38-39), epoch-scoped like
// every other tag. Bit 35 distinguishes reply from request; the block
// coordinates are masked into the low bits (collisions would need schedules
// beyond 4096 steps, 1024 tiles or 32 halving levels).
const (
	tagHedgeBase = 1 << 36
	tagHedgeRepl = 1 << 35

	// tagHedgeReplica carries the up-front buddy replica exchange of a
	// hedged run outside the Recover policy ("HR"; the Recover policy's
	// own exchange uses tagReplica and is reused as-is).
	tagHedgeReplica = (1 << 39) + 0x4852
)

// hedgeTag addresses one hedge request (or its reply) for a block transfer.
func hedgeTag(epoch, si int, b schedule.Block, reply bool) int {
	t := epoch<<56 | tagHedgeBase |
		(si&0xFFF)<<23 | (b.Tile&0x3FF)<<13 | (b.Level&0x1F)<<8 | (b.Index & 0xFF)
	if reply {
		t |= tagHedgeRepl
	}
	return t
}

// errHedgeReq rejects a malformed hedge-request frame.
var errHedgeReq = errors.New("compositor: malformed hedge request")

// hedgeReqMax bounds every field of a hedge request: far above any real
// schedule, low enough that arithmetic on the decoded values cannot
// overflow.
const hedgeReqMax = 1<<30 - 1

// encodeHedgeReq frames a hedge request: "HQ", then uvarint origin rank,
// step index, tile, level, index.
func encodeHedgeReq(origin, si int, b schedule.Block) []byte {
	buf := make([]byte, 0, 2+5*binary.MaxVarintLen32)
	buf = append(buf, 'H', 'Q')
	buf = binary.AppendUvarint(buf, uint64(origin))
	buf = binary.AppendUvarint(buf, uint64(si))
	buf = binary.AppendUvarint(buf, uint64(b.Tile))
	buf = binary.AppendUvarint(buf, uint64(b.Level))
	buf = binary.AppendUvarint(buf, uint64(b.Index))
	return buf
}

// decodeHedgeReq inverts encodeHedgeReq. It rejects trailing bytes,
// out-of-range fields and non-canonical varints; semantic validation
// against the schedule happens in buildHedgePayload.
func decodeHedgeReq(p []byte) (origin, si int, b schedule.Block, err error) {
	r := wire.NewReader(p)
	if magic := r.Bytes(2); string(magic) != "HQ" {
		return 0, 0, schedule.Block{}, errHedgeReq
	}
	origin, si = r.Int(hedgeReqMax), r.Int(hedgeReqMax)
	b = schedule.Block{Tile: r.Int(hedgeReqMax), Level: r.Int(hedgeReqMax), Index: r.Int(hedgeReqMax)}
	if r.Done() != nil {
		return 0, 0, schedule.Block{}, errHedgeReq
	}
	return origin, si, b, nil
}

// planPure reports whether a rank's per-tile plan merges nothing before
// step si: its blocks at si are then a pure function of the initial layer
// (halvings only), so a buddy holding the layer replica can reconstruct any
// of them byte-identically. Sends at earlier steps only remove other
// blocks; receives at si itself merge after the step's sends are taken.
func planPure(plan []schedule.TileStep, si int) bool {
	for i := range plan {
		if plan[i].Step >= si {
			break
		}
		if len(plan[i].Recvs) > 0 {
			return false
		}
	}
	return true
}

// hedger is what the inboxes and the hedge server of one hedged run share,
// read-only once they start.
type hedger struct {
	c         comm.Comm
	sched     *schedule.Schedule
	cdc       codec.Codec
	tel       *telemetry.Recorder
	est       *gray.Estimator
	me, epoch int
	threshold time.Duration         // HedgeConfig.Threshold; zero: the estimator's, else the default
	replicas  map[int]*raster.Image // the ward sub-images reconstructions are built from
	stale     []comm.MsgKey         // replica frames the up-front exchange gave up on
}

// hedgeable reports whether a transfer from a rank at a step is worth
// hedging: its content must be reconstructable from the sender's replica
// (purity), and the sender must have a buddy other than itself.
func (h *hedger) hedgeable(from, si, tile int) bool {
	if schedule.Buddy(from, h.sched.P) == from {
		return false
	}
	return planPure(h.sched.TilePlans(from)[tile], si)
}

// replyKey is where the reconstruction of a transfer of step si arrives.
func (h *hedger) replyKey(si int, tr schedule.Transfer) comm.MsgKey {
	return comm.MsgKey{From: schedule.Buddy(tr.From, h.sched.P), Tag: hedgeTag(h.epoch, si, tr.Block, true)}
}

// due resolves when a step's pending transfers are overdue enough to hedge:
// the configured threshold from now, else the adaptive estimator's tightest
// opinion across the hedgeable senders, else the default. The zero time
// means there is nothing to hedge.
func (h *hedger) due(si int, pending map[comm.MsgKey]schedule.Transfer) time.Time {
	best, any := time.Duration(0), false
	for _, tr := range pending {
		if !h.hedgeable(tr.From, si, tr.Block.Tile) {
			continue
		}
		any = true
		if d := h.est.HedgeDelay(gray.ClassStep, tr.From); d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	if !any {
		return time.Time{}
	}
	if h.threshold > 0 {
		best = h.threshold
	} else if best == 0 {
		best = DefaultHedgeThreshold
	}
	return time.Now().Add(best)
}

// fireHedges fires the step's one hedge round: every hedgeable transfer
// still pending is asked of its sender's buddy on the hedge tag, its reply
// key joining the pending set, or — when this rank is the buddy —
// reconstructed from the local replica, which settles it on the spot: that
// one is returned, and the round resumes at the next call. Requests are
// best-effort: a failed send or an unanswerable request just leaves the
// original in charge.
func (in *fabricInbox) fireHedges(si int, pending map[comm.MsgKey]schedule.Transfer) (schedule.Transfer, []byte, bool) {
	h := in.hedge
	for k, tr := range pending {
		reply := h.replyKey(si, tr)
		if _, asked := pending[reply]; asked || k.From != tr.From || in.il.holds(k) ||
			!h.hedgeable(tr.From, si, tr.Block.Tile) {
			continue
		}
		h.tel.Add(h.me, telemetry.CtrHedgeRequests, 1)
		h.tel.Flight(h.me, telemetry.FlightHedge, si, tr.Block.Tile, tr.From, "overdue; hedging")
		if reply.From != h.me {
			_ = comm.SendCtx(h.c, reply.From, hedgeTag(h.epoch, si, tr.Block, false),
				encodeHedgeReq(tr.From, si, tr.Block),
				traceid.Context{Step: si, Tile: tr.Block.Tile, Epoch: h.epoch})
			pending[reply] = tr
		} else if payload, ok := h.buildHedgePayload(tr.From, si, tr.Block); ok {
			h.tel.Add(h.me, telemetry.CtrHedgeServed, 1)
			pending[reply] = tr
			in.settleHedge(si, reply, tr, pending)
			return tr, payload, true
		}
	}
	in.hedgeAt = time.Time{}
	return schedule.Transfer{}, nil, false
}

// settleHedge ends the race for a transfer as the copy under key is
// delivered: the other copy's key leaves the pending set with it. An
// original that lost is noted, to be taken off the fabric when it lands.
func (in *fabricInbox) settleHedge(si int, key comm.MsgKey, tr schedule.Transfer, pending map[comm.MsgKey]schedule.Transfer) {
	h := in.hedge
	reply := h.replyKey(si, tr)
	if key != reply {
		if _, raced := pending[reply]; raced {
			delete(pending, reply)
			h.tel.Add(h.me, telemetry.CtrHedgeWasted, 1)
		}
		return
	}
	orig := comm.MsgKey{From: tr.From, Tag: tagFor(h.epoch, si, tr.Block)}
	delete(pending, reply)
	delete(pending, orig)
	if !in.il.holds(orig) { // else it has landed, and the reorder buffer drops it
		in.late = append(in.late, orig)
	}
	h.tel.Add(h.me, telemetry.CtrHedgeWins, 1)
	in.health.HedgeWon(tr.From)
	h.tel.Flight(h.me, telemetry.FlightHedge, si, tr.Block.Tile, tr.From, "hedge won")
}

// swallowLate waits, up to the deadline and uncounted, for the original of
// every transfer whose hedge won and recycles it: tags repeat every frame,
// and a late original left in the mailbox would be the next frame's message.
func (in *fabricInbox) swallowLate() {
	sw := fabricInbox{c: in.c, timeout: in.timeout, est: in.est, stop: in.stop, pol: bestEffort, scr: in.scr}
	pending := in.scr.pending
	clear(pending)
	for _, k := range in.late {
		pending[k] = schedule.Transfer{From: k.From}
	}
	for len(pending) > 0 {
		_, payload, err := sw.next(telemetry.StepNone, pending)
		if err != nil {
			return
		}
		bufpool.Put(payload)
	}
}

// buildHedgePayload reconstructs the exact wire payload the origin rank
// would send for a block at a step, from its replica: stage the replica's
// tile, replay the halvings up to the sending step, take the block, encode.
// Purity guarantees byte-identity — nothing was ever merged into the
// origin's tile before this step, and halvings are per-block. Reports false
// when the request cannot be served (no replica, impure, out of range).
func (h *hedger) buildHedgePayload(origin, si int, b schedule.Block) ([]byte, bool) {
	if origin < 0 || origin >= h.sched.P || si < 0 || si >= len(h.sched.Steps) ||
		b.Tile < 0 || b.Tile >= h.sched.Tiles {
		return nil, false
	}
	replica := h.replicas[origin]
	if replica == nil {
		return nil, false
	}
	plans := h.sched.TilePlans(origin)
	if !planPure(plans[b.Tile], si) {
		return nil, false
	}
	st := fragstore.NewTile(origin, h.sched, replica, b.Tile)
	defer st.Release()
	for i := range plans[b.Tile] {
		ts := &plans[b.Tile][i]
		if ts.Step > si {
			break
		}
		for n := 0; n < ts.Pre; n++ {
			st.HalveAll()
		}
		if ts.Step == si {
			break
		}
		for n := 0; n < ts.Post; n++ {
			st.HalveAll()
		}
	}
	frags, err := st.Take(b)
	if err != nil {
		return nil, false
	}
	payload, _, _ := EncodeFragmentsAppend(bufpool.Get(messageBound(frags))[:0], frags, h.cdc)
	fragstore.ReleaseAll(frags)
	return payload, true
}

// serve is the hedge server: it takes, from its own inbox, the request every
// pure send of every ward may draw from its receiver, and answers each with
// the reconstruction, until the run stops it. Serving is best-effort: an
// unanswerable request (bad frame, missing replica, impure) is simply
// dropped — the requester's original path and deadline remain in charge.
// The server also takes the stale replica frames off the fabric, should
// they still land while it runs.
func (h *hedger) serve(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	scr := newRunScratch()
	defer scr.release()
	reqs := scr.pending
	for _, ward := range schedule.Wards(h.me, h.sched.P) {
		wplans := h.sched.TilePlans(ward)
		for t, plan := range wplans {
			for _, ts := range plan {
				for _, tr := range ts.Sends {
					if tr.To != h.me && planPure(wplans[t], ts.Step) {
						reqs[comm.MsgKey{From: tr.To, Tag: hedgeTag(h.epoch, ts.Step, tr.Block, false)}] =
							schedule.Transfer{From: tr.To}
					}
				}
			}
		}
	}
	for _, k := range h.stale {
		reqs[k] = schedule.Transfer{From: k.From, Block: schedule.Block{Tile: -1}}
	}
	in := fabricInbox{c: h.c, stop: stop, pol: bestEffort, scr: scr}
	for len(reqs) > 0 {
		tr, req, err := in.next(telemetry.StepNone, reqs)
		if err != nil {
			return
		}
		origin, si, b, err := decodeHedgeReq(req)
		bufpool.Put(req)
		if err != nil || tr.Block.Tile < 0 {
			continue
		}
		payload, ok := h.buildHedgePayload(origin, si, b)
		if !ok {
			continue
		}
		h.tel.Add(h.me, telemetry.CtrHedgeServed, 1)
		h.tel.Flight(h.me, telemetry.FlightHedge, si, b.Tile, tr.From, "replica served")
		_ = comm.SendCtx(h.c, tr.From, hedgeTag(h.epoch, si, b, true), payload,
			traceid.Context{Step: si, Tile: b.Tile, Epoch: h.epoch})
		bufpool.Put(payload) // Send copies; the reply buffer recycles like send's
	}
}

// newHedger builds the run's hedging state. The Recover policy already
// exchanged buddy replicas, and hedges are served from those; any other
// hedged run exchanges its own first (exchangeReplicas): before the workers
// start, on its own tag, best-effort. A ward whose replica never arrives is
// simply unhedgeable, and its frame, should it still come, is the server's
// to discard.
func newHedger(pr *pipeRun, replicas map[int]*raster.Image) (*hedger, error) {
	h := &hedger{c: pr.c, sched: pr.sched, cdc: pr.cdc, tel: pr.tel, est: pr.opts.Adaptive,
		me: pr.me, epoch: pr.epoch, threshold: pr.opts.Pipeline.Hedge.Threshold, replicas: replicas}
	if replicas != nil {
		return h, nil
	}
	if err := waitRendered(pr.opts.Pipeline.Source, pr.spans); err != nil {
		return nil, err
	}
	scr := newRunScratch()
	defer scr.release()
	in := fabricInbox{c: pr.c, timeout: pr.opts.RecvTimeout, tel: pr.tel, pol: bestEffort, scr: scr}
	if in.timeout <= 0 || in.timeout > 5*time.Second {
		in.timeout = 5 * time.Second
	}
	var err error
	h.replicas, _, err = exchangeReplicas(&in, tagHedgeReplica, pr.local, pr.cdc)
	for _, w := range schedule.Wards(pr.me, pr.sched.P) {
		if h.replicas[w] == nil {
			h.stale = append(h.stale, comm.MsgKey{From: w, Tag: tagHedgeReplica})
		}
	}
	return h, err
}
