// The recovery engine of the Recover policy: buddy replication of the
// initial sub-images, silence-based failure agreement, schedule repair over
// the survivors and bounded re-execution — so a composition that loses a
// rank mid-frame still delivers the complete, pixel-exact image instead of
// a degraded one.
//
// The protocol runs in epochs. Epoch 0 ships every rank's encoded initial
// sub-image to a deterministic buddy (schedule.Buddy) and then executes the
// original schedule. Any failure signal — a missed receive deadline, a
// peer error, a FAILED notice from another rank — aborts the attempt: the
// aborting rank broadcasts a best-effort notice and falls through to the
// membership agreement (comm.Agree), which every live rank runs after every
// attempt, completed or aborted, and which doubles as the commit barrier.
// When the agreement declares new ranks dead, the survivors advance the
// epoch in lockstep, repair the schedule (schedule.Repair) so each dead
// rank's layer is contributed by its buddy from the replica, and re-execute
// under epoch-scoped tags (stale traffic from the aborted attempt dies
// unread under its old tags). When the agreement is clean and the local
// attempt completed, the epoch commits. When the recovery budget is
// exhausted, or a dead rank's replica died with its buddy, one final
// compose-partial epoch salvages what it can and the result is forcibly
// flagged Degraded — it was never certified complete.
package compositor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/statexfer"
	"rtcomp/internal/telemetry"
)

// DefaultMaxRecoveries is the re-execution budget when Options.MaxRecoveries
// is zero: enough for one genuine failure plus one false alarm.
const DefaultMaxRecoveries = 2

// Reserved epoch-0 tags of the recovery protocol, below 2^40 like
// tagGatherFinal (step tags always carry step+1 >= 1 in bits 40+).
const (
	tagReplica   = (1 << 39) + 0x5250 // buddy replica exchange ("RP")
	tagCommitImg = (1 << 39) + 0x434D // certified-image broadcast ("CM")
)

func commitTag(epoch int) int { return epoch<<56 | tagCommitImg }

// noticePollTimeout bounds the post-agreement notice poll of a completed
// rank. An aborter sends its notice before its agreement pings, and the
// fabrics deliver per-pair in order, so by the time the agreement has heard
// the aborter the notice is already in the mailbox — the poll only needs a
// nonzero budget to look.
const noticePollTimeout = 5 * time.Millisecond

// rexec is the per-rank state of one recovering composition.
type rexec struct {
	c     comm.Comm
	sched *schedule.Schedule
	local *raster.Image
	opts  Options
	cdc   codec.Codec
	rep   *Report
	tel   *telemetry.Recorder
	me    int
	mem   *comm.Membership
	scr   *runScratch // reused across epochs; an abort does not invalidate it

	// replicas holds the ward sub-images this rank received in the initial
	// buddy exchange — the recovery source, and (when hedging is enabled)
	// the material the pipelined attempt serves hedge requests from.
	replicas map[int]*raster.Image

	// noticeSent guards the one FAILED notice this rank may broadcast per
	// epoch (the notice tag is unique per epoch).
	noticeSent bool

	// maxRec and agreeTO are the resolved recovery budget and agreement
	// timeout (see runRecover); loop() shares them with the spare path.
	maxRec  int
	agreeTO time.Duration

	// scrub fingerprints the held replicas so the scrub exchange (and a
	// rejoin's ward verification) can detect silent corruption. Nil unless
	// Options.ScrubReplicas is set.
	scrub *statexfer.Scrubber
}

// abort broadcasts this epoch's FAILED notice (once) naming the suspected
// ranks, and returns true so callers can `return nil, rx.abort(...), nil`.
func (rx *rexec) abort(suspects []int) bool {
	if !rx.noticeSent {
		rx.noticeSent = true
		comm.BroadcastFailure(rx.c, rx.mem, suspects)
		rx.tel.Add(rx.me, telemetry.CtrFailNotices, 1)
	}
	return true
}

// graceOrEscalate is the brownout-vs-death decision at a receive deadline:
// it records a deadline miss against every suspect and reports whether the
// attempt should keep waiting (grace). Without health scoring the answer is
// always to abort — the pre-existing silence-only semantics. With it, only
// a suspect whose misbehavior is sustained past the escalation bar hands
// the attempt to failure agreement; a slow-but-delivering peer's score
// decays on every arrival and never gets there.
func (rx *rexec) graceOrEscalate(suspects []int) bool {
	for _, s := range suspects {
		rx.opts.Health.DeadlineMiss(s)
	}
	if rx.opts.Health == nil || len(suspects) == 0 {
		return false
	}
	for _, s := range suspects {
		if rx.opts.Health.ShouldEscalate(s) {
			rx.tel.Add(rx.me, telemetry.CtrHealthEscalations, 1)
			return false
		}
	}
	rx.tel.Add(rx.me, telemetry.CtrDeadlineGrace, 1)
	return true
}

// suspectsOf attributes a recoverable error to a rank: the named peer when
// the error carries one, otherwise the given counterpart of the failed
// operation.
func suspectsOf(err error, fallback int) []int {
	var perr *comm.PeerError
	if errors.As(err, &perr) {
		return []int{perr.Rank}
	}
	return []int{fallback}
}

// runRecover executes the composition under the Recover policy.
func runRecover(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options, cdc codec.Codec) (*raster.Image, *Report, error) {
	if opts.RecvTimeout <= 0 {
		return nil, nil, fmt.Errorf("compositor: the recover policy requires a positive RecvTimeout (failure detection is deadline-based)")
	}
	maxRec := opts.MaxRecoveries
	if maxRec == 0 {
		maxRec = DefaultMaxRecoveries
	} else if maxRec < 0 {
		maxRec = 0
	}
	agreeTO := opts.AgreeTimeout
	if agreeTO <= 0 {
		agreeTO = 3 * opts.RecvTimeout
	}
	rx := &rexec{
		c:       c,
		sched:   sched,
		local:   local,
		opts:    opts,
		cdc:     cdc,
		rep:     &Report{Rank: c.Rank()},
		tel:     opts.Telemetry,
		me:      c.Rank(),
		mem:     comm.NewMembership(sched.P),
		scr:     newRunScratch(),
		maxRec:  maxRec,
		agreeTO: agreeTO,
	}
	defer rx.scr.release()
	if src := opts.Pipeline.Source; opts.Pipeline.Enabled && src != nil {
		// The replica exchange ships the complete local sub-image, so the
		// render must finish before replication: Recover trades render
		// overlap for a certifiable replica. Later WaitTile calls from the
		// pipelined attempt return immediately.
		for t, span := range sched.TileSpans(local.NPixels()) {
			if err := src.WaitTile(t, span); err != nil {
				return nil, nil, fmt.Errorf("compositor: tile %d render: %w", t, err)
			}
		}
	}
	replicas, aborted, err := rx.exchangeReplicas()
	if err != nil {
		return nil, nil, err
	}
	rx.replicas = replicas
	if opts.ScrubReplicas {
		// The scrub exchange runs even on an aborted epoch 0: every rank
		// participates in lockstep (the exchange kept collecting replicas
		// until its deadline), so the protocol stays matched; a rank that
		// died mid-exchange just surfaces as one more deadline-driven abort.
		scrubAborted, err := rx.scrubReplicas()
		if err != nil {
			return nil, nil, err
		}
		aborted = aborted || scrubAborted
	}
	return rx.loop(aborted)
}

// loop is the epoch engine shared by the survivors (runRecover) and a
// rejoined spare (RunSpare): attempt, agreement, commit-or-advance, bounded
// rejoin of spares after every membership change, and the compose-partial
// fallback once the budget is spent or the dead set is unrecoverable.
func (rx *rexec) loop(aborted bool) (*raster.Image, *Report, error) {
	c, sched, opts := rx.c, rx.sched, rx.opts
	recoveries := 0
	var final *raster.Image
	var err error
	for {
		if !aborted {
			var plan *schedule.Schedule
			var owners []int
			// Restore reverts to the original schedule (and owner map) when
			// every failed rank has rejoined — the healed mesh composites at
			// full pre-failure capacity.
			if plan, owners, err = schedule.Restore(sched, rx.mem.Dead()); err != nil {
				return nil, nil, err
			}
			var endRecover func()
			if rx.mem.Epoch() > 0 {
				endRecover = rx.tel.Span(rx.me, telemetry.PhaseRecover, telemetry.CatCompute, telemetry.StepNone)
			}
			if rx.mem.Epoch() == 0 && opts.Pipeline.Enabled {
				// Only the first attempt is pipelined. runPipelined joins
				// every worker and drains the in-flight window before
				// returning, so an aborted attempt reaches the agreement
				// below fully quiesced; re-executions over repaired
				// schedules run synchronously.
				final, aborted, err = runPipelined(c, plan, rx.local, opts, rx.cdc, rx.rep, rx)
			} else {
				final, aborted, err = rx.epochAttempt(plan, owners, rx.replicas)
			}
			if endRecover != nil {
				endRecover()
			}
			if err != nil {
				return nil, nil, err
			}
		}

		endAgree := rx.tel.Span(rx.me, telemetry.PhaseAgree, telemetry.CatNetwork, telemetry.StepNone)
		newDead, err := comm.Agree(c, rx.mem, rx.agreeTO)
		endAgree()
		if err != nil {
			// Includes comm.ErrEvicted: the survivors condemned this rank
			// under too-tight deadlines; it must stop participating.
			return nil, nil, fmt.Errorf("compositor: epoch %d agreement: %w", rx.mem.Epoch(), err)
		}
		if !aborted && len(newDead) == 0 && !rx.noticePending() {
			// Commit: the attempt completed everywhere and nobody died.
			rx.rep.Recovered = rx.mem.NumDead() > 0
			rx.rep.RecoveryEpochs = recoveries
			rx.rep.RecoveredRanks = rx.mem.Dead()
			rx.tel.Add(rx.me, telemetry.CtrRecoveryEpochs, int64(recoveries))
			rx.tel.Add(rx.me, telemetry.CtrRecoveredRanks, int64(len(rx.rep.RecoveredRanks)))
			final, err = rx.commitBroadcast(final)
			if err != nil {
				return nil, nil, err
			}
			finalizeReport(c, rx.rep, rx.tel)
			return final, rx.rep, nil
		}

		// Retry path: enter the next epoch in lockstep with the survivors.
		rx.mem.Advance(newDead)
		rx.tel.Flight(rx.me, telemetry.FlightEpoch, telemetry.StepNone, -1, -1, "epoch advanced")
		rx.noticeSent = false
		aborted = false
		if opts.RejoinTimeout > 0 && rx.mem.NumDead() > 0 {
			// Before deciding whether to degrade, give any registered spare a
			// bounded window to take over a dead slot. A successful rejoin
			// resets the recovery budget: the healed mesh is not still
			// charged for the failure it already repaired.
			rejoined, err := rx.attemptRejoin()
			if err != nil {
				return nil, nil, err
			}
			if rejoined > 0 {
				recoveries = 0
			}
		}
		_, recoverable := schedule.RepairOwners(sched.P, rx.mem.Dead())
		if recoveries >= rx.maxRec || !recoverable {
			if opts.RejoinTimeout > 0 {
				// A spare was consulted and none arrived in time; record the
				// typed timeout so the degradation is attributable.
				rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1, "rejoin timeout, degrading")
			}
			break
		}
		recoveries++
		rx.rep.resetDegradation()
	}

	// Fallback: one compose-partial epoch over the best repaired plan. The
	// replicas still contribute every dead layer whose buddy survived; the
	// result is forcibly flagged Degraded because it was never certified.
	plan, owners := sched, []int(nil)
	dead := make([]bool, sched.P)
	if rx.mem.NumDead() > 0 {
		if plan, owners, err = schedule.Repair(sched, rx.mem.Dead()); err != nil {
			return nil, nil, err
		}
		for _, d := range rx.mem.Dead() {
			dead[d] = true
		}
	}
	fopts := opts
	fopts.OnMissing = ComposePartial
	rx.rep.resetDegradation()
	final, err = runOnce(c, plan, rx.local, fopts, rx.cdc, rx.rep, rx.mem.Epoch(), owners, rx.replicas, dead, rx.scr)
	if err != nil {
		return nil, nil, err
	}
	rx.rep.Degraded = true
	rx.rep.Recovered = false
	rx.rep.RecoveryEpochs = recoveries + 1
	for l, o := range owners {
		if o >= 0 && o != l {
			rx.rep.RecoveredRanks = append(rx.rep.RecoveredRanks, l)
		}
	}
	rx.tel.Add(rx.me, telemetry.CtrRecoveryEpochs, int64(rx.rep.RecoveryEpochs))
	finalizeReport(c, rx.rep, rx.tel)
	return final, rx.rep, nil
}

// encodeReplica frames the local sub-image for the buddy exchange:
// uvarint width, uvarint height, then the pixels' wire form
// (codec.EncodeCapped: never larger than the pixels), built in one
// allocation.
func encodeReplica(img *raster.Image, cdc codec.Codec) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(img.Pix))
	buf = binary.AppendUvarint(buf, uint64(img.W))
	buf = binary.AppendUvarint(buf, uint64(img.H))
	return codec.EncodeCapped(buf, img.Pix, cdc)
}

// decodeReplica inverts encodeReplica, decoding straight into the image's
// own fresh pixel array; all failures wrap codec.ErrCorrupt.
func decodeReplica(payload []byte, cdc codec.Codec, w, h int) (*raster.Image, error) {
	rw, off := binary.Uvarint(payload)
	if off <= 0 {
		return nil, fmt.Errorf("compositor: %w: replica width", codec.ErrCorrupt)
	}
	rest := payload[off:]
	rh, off := binary.Uvarint(rest)
	if off <= 0 {
		return nil, fmt.Errorf("compositor: %w: replica height", codec.ErrCorrupt)
	}
	rest = rest[off:]
	if int(rw) != w || int(rh) != h {
		return nil, fmt.Errorf("compositor: %w: replica is %dx%d, want %dx%d", codec.ErrCorrupt, rw, rh, w, h)
	}
	data, err := codec.Resolve(cdc, rest, w*h).DecodeInto(nil, rest, w*h)
	if err != nil {
		return nil, fmt.Errorf("compositor: decoding replica: %w", err)
	}
	if want := w * h * raster.BytesPerPixel; len(data) != want {
		return nil, fmt.Errorf("compositor: %w: replica has %d pixel bytes, want %d", codec.ErrCorrupt, len(data), want)
	}
	return &raster.Image{W: w, H: h, Pix: data}, nil
}

// exchangeReplicas ships the local sub-image to this rank's buddy and
// collects the sub-images of the ranks this rank wards, all under the
// epoch-0 replica tag. A failure during the exchange aborts epoch 0 (the
// schedule has not started; agreement and repair handle it), but the
// exchange keeps collecting the remaining frames until its deadline so a
// late ward's replica is not thrown away — it may be the only copy left.
func (rx *rexec) exchangeReplicas() (map[int]*raster.Image, bool, error) {
	p := rx.c.Size()
	replicas := map[int]*raster.Image{}
	if p <= 1 {
		return replicas, false, nil
	}
	endRep := rx.tel.Span(rx.me, telemetry.PhaseReplicate, telemetry.CatNetwork, telemetry.StepNone)
	defer endRep()

	aborted := false
	frame := encodeReplica(rx.local, rx.cdc)
	buddy := schedule.Buddy(rx.me, p)
	if err := rx.c.Send(buddy, tagReplica, frame); err != nil {
		if !comm.IsRecoverable(err) {
			return nil, false, fmt.Errorf("compositor: replica send to buddy %d: %w", buddy, err)
		}
		aborted = rx.abort(suspectsOf(err, buddy))
	} else {
		rx.tel.Add(rx.me, telemetry.CtrReplicaMsgs, 1)
		rx.tel.Add(rx.me, telemetry.CtrReplicaRawBytes, int64(len(rx.local.Pix)))
		rx.tel.Add(rx.me, telemetry.CtrReplicaWireBytes, int64(len(frame)))
	}

	pending := map[int]bool{}
	for _, w := range schedule.Wards(rx.me, p) {
		pending[w] = true
	}
	for len(pending) > 0 {
		keys := make([]comm.MsgKey, 0, len(pending)+p)
		for w := range pending {
			keys = append(keys, comm.MsgKey{From: w, Tag: tagReplica})
		}
		keys = append(keys, rx.mem.NoticeKeys(rx.me)...)
		from, tag, payload, err := rx.c.RecvAnyTimeout(keys, rx.opts.RecvTimeout)
		if err != nil {
			var perr *comm.PeerError
			switch {
			case errors.As(err, &perr):
				aborted = rx.abort([]int{perr.Rank})
				delete(pending, perr.Rank)
				continue
			case errors.Is(err, comm.ErrDeadline):
				rx.tel.Add(rx.me, telemetry.CtrDeadlineHits, 1)
				// A slow ward earns grace here exactly like a slow sender
				// during the composition: its replica may be the only copy,
				// and a brownout is not a death.
				suspects := setKeys(pending)
				if rx.graceOrEscalate(suspects) {
					continue
				}
				aborted = rx.abort(suspects)
				return replicas, aborted, nil
			}
			return nil, false, fmt.Errorf("compositor: replica exchange: %w", err)
		}
		if tag == comm.NoticeTag(rx.mem.Epoch()) {
			// Another rank aborted the epoch; keep collecting replicas —
			// they are sent exactly once and may be the only copies.
			bufpool.Put(payload)
			aborted = true
			continue
		}
		delete(pending, from)
		rx.opts.Health.Ok(from)
		img, derr := decodeReplica(payload, rx.cdc, rx.local.W, rx.local.H)
		// decodeReplica decodes into a fresh image (DecodeInto never aliases
		// its input), so the wire buffer recycles either way.
		bufpool.Put(payload)
		if derr != nil {
			// A corrupt replica is dropped: the primary path does not need
			// it, and recovery of `from` would fall back to compose-partial.
			continue
		}
		replicas[from] = img
	}
	return replicas, aborted, nil
}

// epochAttempt executes one epoch of the (possibly repaired) plan with
// abort-on-failure semantics: any recoverable failure, or a FAILED notice
// from a peer, abandons the attempt (second result true) after broadcasting
// this rank's own notice. Only local faults are fatal errors.
func (rx *rexec) epochAttempt(plan *schedule.Schedule, owners []int, replicas map[int]*raster.Image) (*raster.Image, bool, error) {
	epoch := rx.mem.Epoch()
	me := rx.me
	st := fragstore.New(me, plan, rx.local)
	// Completed or aborted, every exit is past the last use of the store.
	defer st.Release()
	for l, o := range owners {
		if o != me || l == me {
			continue
		}
		img := replicas[l]
		if img == nil {
			// Assigned a dead rank's layer without holding its replica:
			// completeness cannot be certified. Retries cannot fix this, so
			// the budget drains and the fallback epoch blanks the layer.
			return nil, rx.abort(nil), nil
		}
		overPix, err := st.InsertLayer(l, img)
		if err != nil {
			return nil, false, err
		}
		rx.rep.OverPixels += overPix
	}

	noticeTag := comm.NoticeTag(epoch)
	for si, step := range plan.Steps {
		if rx.opts.OnStep != nil {
			rx.opts.OnStep(si)
		}
		for h := 0; h < step.PreHalvings; h++ {
			st.HalveAll()
		}
		clear(rx.scr.pending)
		pending := rx.scr.pending
		for _, tr := range step.Transfers {
			switch {
			case tr.From == me:
				if err := send(rx.c, st, rx.cdc, rx.rep, rx.tel, epoch, si, tr, rx.scr); err != nil {
					if comm.IsRecoverable(err) {
						return nil, rx.abort(suspectsOf(err, tr.To)), nil
					}
					return nil, false, fmt.Errorf("compositor: step %d: %w", si+1, err)
				}
			case tr.To == me:
				pending[comm.MsgKey{From: tr.From, Tag: tagFor(epoch, si, tr.Block)}] = tr
			}
		}
		for len(pending) > 0 {
			keys := rx.scr.keys[:0]
			for k := range pending {
				keys = append(keys, k)
			}
			keys = append(keys, rx.mem.NoticeKeys(me)...)
			rx.scr.keys = keys[:0]
			endRecv := rx.tel.Span(me, telemetry.PhaseRecv, telemetry.CatNetwork, si)
			from, tag, payload, err := rx.c.RecvAnyTimeout(keys, rx.opts.RecvTimeout)
			endRecv()
			if err != nil {
				var perr *comm.PeerError
				switch {
				case errors.As(err, &perr):
					return nil, rx.abort([]int{perr.Rank}), nil
				case errors.Is(err, comm.ErrDeadline):
					rx.tel.Add(me, telemetry.CtrDeadlineHits, 1)
					suspects := sendersOf(pending)
					if rx.graceOrEscalate(suspects) {
						continue
					}
					return nil, rx.abort(suspects), nil
				}
				return nil, false, fmt.Errorf("compositor: step %d: %w", si+1, err)
			}
			if tag == noticeTag {
				// A peer already broadcast this epoch's failure; no need to
				// repeat it.
				bufpool.Put(payload)
				return nil, true, nil
			}
			key := comm.MsgKey{From: from, Tag: tag}
			tr, ok := pending[key]
			if !ok {
				return nil, false, fmt.Errorf("compositor: unexpected message from rank %d tag %d", from, tag)
			}
			delete(pending, key)
			if err := merge(st, rx.cdc, rx.rep, rx.tel, si, tr, payload, rx.scr); err != nil {
				if errors.Is(err, codec.ErrCorrupt) {
					// The payload is unrecoverable but the sender is alive: a
					// clean re-execution may succeed.
					return nil, rx.abort(nil), nil
				}
				return nil, false, err
			}
		}
		for h := 0; h < step.PostHalvings; h++ {
			st.HalveAll()
		}
	}

	overPix, err := st.CoalesceAll()
	if err != nil {
		return nil, false, err
	}
	rx.rep.OverPixels += overPix
	if err := st.CheckComplete(plan.P); err != nil {
		// The plan finished but some block is not fully composited — only
		// possible when a contribution silently vanished. Not certifiable.
		return nil, rx.abort(nil), nil
	}
	rx.rep.FinalBlocks = st.Len()

	root := rx.opts.GatherRoot
	if root < 0 {
		return nil, false, nil
	}
	endGather := rx.tel.Span(me, telemetry.PhaseGather, telemetry.CatNetwork, telemetry.StepNone)
	defer endGather()
	if me != root {
		if err := rx.c.Send(root, gatherTag(epoch), encodeFinalBlocks(rx.scr, st)); err != nil {
			if comm.IsRecoverable(err) {
				return nil, rx.abort(suspectsOf(err, root)), nil
			}
			return nil, false, fmt.Errorf("compositor: gather send: %w", err)
		}
		return nil, false, nil
	}
	out := raster.New(rx.local.W, rx.local.H)
	covered := st.CopyInto(out)
	pendingRanks := map[int]bool{}
	for r := 0; r < rx.c.Size(); r++ {
		if r != root && rx.mem.Alive(r) {
			pendingRanks[r] = true
		}
	}
	for len(pendingRanks) > 0 {
		keys := make([]comm.MsgKey, 0, len(pendingRanks))
		for r := range pendingRanks {
			keys = append(keys, comm.MsgKey{From: r, Tag: gatherTag(epoch)})
		}
		keys = append(keys, rx.mem.NoticeKeys(me)...)
		from, tag, part, err := rx.c.RecvAnyTimeout(keys, rx.opts.RecvTimeout)
		if err != nil {
			var perr *comm.PeerError
			switch {
			case errors.As(err, &perr):
				return nil, rx.abort([]int{perr.Rank}), nil
			case errors.Is(err, comm.ErrDeadline):
				rx.tel.Add(me, telemetry.CtrDeadlineHits, 1)
				suspects := setKeys(pendingRanks)
				if rx.graceOrEscalate(suspects) {
					continue
				}
				return nil, rx.abort(suspects), nil
			}
			return nil, false, fmt.Errorf("compositor: gather: %w", err)
		}
		if tag == noticeTag {
			bufpool.Put(part)
			return nil, true, nil
		}
		delete(pendingRanks, from)
		n, err := insertFinalBlocks(out, st.Tiles(), part, from)
		bufpool.Put(part) // InsertSpan copied the pixels out
		if err != nil {
			return nil, false, err
		}
		covered += n
	}
	if covered != rx.local.W*rx.local.H {
		return nil, rx.abort(nil), nil
	}
	return out, false, nil
}

// noticePending polls for an unconsumed FAILED notice of the current epoch.
// A rank whose attempt completed must check before committing: a peer may
// have aborted after this rank stopped listening (its notice sits in the
// mailbox), yet answered the agreement so no one looks dead.
func (rx *rexec) noticePending() bool {
	keys := rx.mem.NoticeKeys(rx.me)
	if len(keys) == 0 {
		return false
	}
	_, _, _, err := rx.c.RecvAnyTimeout(keys, noticePollTimeout)
	if err == nil {
		return true
	}
	// A peer failure right at the commit point also forces a retry.
	return !errors.Is(err, comm.ErrDeadline) && comm.IsRecoverable(err)
}

// commitBroadcast redistributes the certified image from the gather root to
// the surviving ranks. It runs after the commit decision, so it never
// triggers a retry: a peer dying this late simply misses its copy.
func (rx *rexec) commitBroadcast(final *raster.Image) (*raster.Image, error) {
	if rx.opts.GatherRoot < 0 || !rx.opts.Broadcast {
		return final, nil
	}
	root, epoch := rx.opts.GatherRoot, rx.mem.Epoch()
	if rx.me == root {
		for r := 0; r < rx.c.Size(); r++ {
			if r == root || !rx.mem.Alive(r) {
				continue
			}
			if err := rx.c.Send(r, commitTag(epoch), final.Pix); err != nil {
				if comm.IsRecoverable(err) {
					continue
				}
				return nil, fmt.Errorf("compositor: commit broadcast to %d: %w", r, err)
			}
		}
		return final, nil
	}
	data, err := rx.c.RecvTimeout(root, commitTag(epoch), rx.opts.RecvTimeout)
	if err != nil {
		return nil, fmt.Errorf("compositor: commit broadcast from root: %w", err)
	}
	img := raster.New(rx.local.W, rx.local.H)
	if len(data) != len(img.Pix) {
		return nil, fmt.Errorf("compositor: broadcast image has %d bytes, want %d", len(data), len(img.Pix))
	}
	copy(img.Pix, data)
	bufpool.Put(data)
	return img, nil
}

// sendersOf lists the distinct source ranks of the transfers still pending,
// ascending.
func sendersOf(pending map[comm.MsgKey]schedule.Transfer) []int {
	set := map[int]bool{}
	for k := range pending {
		set[k.From] = true
	}
	return setKeys(set)
}

func setKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
