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
	"sync/atomic"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/statexfer"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/wire"
)

// DefaultMaxRecoveries is the re-execution budget when Options.MaxRecoveries
// is zero: enough for one genuine failure plus one false alarm.
const DefaultMaxRecoveries = 2

// tagReplica is the reserved epoch-0 tag of the buddy replica exchange
// ("RP"), below 2^40 like tagGatherFinal (step tags always carry step+1 >= 1
// in bits 40+).
const tagReplica = (1 << 39) + 0x5250

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
	dst   *raster.Image // what every epoch's gather assembles into: see RunInto
	opts  Options
	cdc   codec.Codec
	rep   *Report
	tel   *telemetry.Recorder
	me    int
	mem   *comm.Membership
	scr   *runScratch // reused across epochs; an abort does not invalidate it
	pol   failPolicy  // the attempts' policy: grace, then abort and re-execute

	// replicas holds the ward sub-images this rank received in the initial
	// buddy exchange — the recovery source.
	replicas map[int]*raster.Image

	// noticeSent guards the one FAILED notice this rank may broadcast per
	// epoch (the notice tag is unique per epoch).
	noticeSent atomic.Bool

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
// ranks, and returns true so callers can write `aborted = rx.abort(...)`.
// Any goroutine of a pipelined attempt may end up here, hence the atomic
// guard and the send-serialized rx.c.
func (rx *rexec) abort(suspects []int) bool {
	if rx.noticeSent.CompareAndSwap(false, true) {
		comm.BroadcastFailure(rx.c, rx.mem, suspects)
		rx.tel.Add(rx.me, telemetry.CtrFailNotices, 1)
	}
	return true
}

// graceOrEscalate is the brownout-vs-death decision at a receive deadline,
// once the policy has recorded the miss against every suspect: it reports
// whether the attempt should keep waiting (grace). Without health scoring
// the answer is always to abort — the pre-existing silence-only semantics.
// With it, only a suspect whose misbehavior is sustained past the escalation
// bar hands the attempt to failure agreement; a slow-but-delivering peer's
// score decays on every arrival and never gets there.
func (rx *rexec) graceOrEscalate(suspects []int) bool {
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
	rx.tel.Flight(rx.me, telemetry.FlightGray, telemetry.StepNone, -1, -1,
		fmt.Sprintf("deadline grace for ranks %v", suspects))
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

// newRexec resolves the recovery budget and agreement timeout and builds the
// per-rank state; the caller releases rx.scr.
func newRexec(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options, cdc codec.Codec,
	rep *Report, mem *comm.Membership, replicas map[int]*raster.Image) *rexec {
	rx := &rexec{
		// A pipelined attempt sends the FAILED notice from whichever of its
		// goroutines hits the failure, while its workers are sending blocks.
		c:        &lockedComm{Comm: c},
		sched:    sched,
		local:    local,
		opts:     opts,
		cdc:      cdc,
		rep:      rep,
		tel:      opts.Telemetry,
		me:       c.Rank(),
		mem:      mem,
		scr:      newRunScratch(),
		replicas: replicas,
		maxRec:   opts.MaxRecoveries,
		// Enough for a peer that was still blocked on the dead rank to
		// reach the agreement late.
		agreeTO: 3 * opts.RecvTimeout,
	}
	if rx.maxRec == 0 {
		rx.maxRec = DefaultMaxRecoveries
	} else if rx.maxRec < 0 {
		rx.maxRec = 0
	}
	rx.pol = newFailPolicy(&opts, rx, rx.me)
	return rx
}

// waitRendered blocks until src has rendered every tile. A replica is the
// complete local sub-image, so replication trades render overlap for it;
// later WaitTile calls from the pipelined workers return immediately.
func waitRendered(src Source, spans []raster.Span) error {
	if src == nil {
		return nil
	}
	for t, span := range spans {
		if err := src.WaitTile(t, span); err != nil {
			return fmt.Errorf("compositor: tile %d render: %w", t, err)
		}
	}
	return nil
}

// runRecover executes the composition under the Recover policy.
func runRecover(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options, cdc codec.Codec) (*raster.Image, *Report, error) {
	if opts.RecvTimeout <= 0 {
		return nil, nil, fmt.Errorf("compositor: the recover policy requires a positive RecvTimeout (failure detection is deadline-based)")
	}
	rx := newRexec(c, sched, local, opts, cdc, &Report{Rank: c.Rank()}, comm.NewMembership(sched.P), nil)
	rx.dst = dst
	defer rx.scr.release()
	if opts.Pipeline.Enabled {
		if err := waitRendered(opts.Pipeline.Source, sched.TileSpans(local.NPixels())); err != nil {
			return nil, nil, err
		}
	}
	// A failure during the exchange aborts epoch 0 (the schedule has not
	// started; agreement and repair handle it), and a slow ward earns grace
	// exactly like a slow sender during the composition.
	in := newFabricInbox(rx.c, &opts, rx.pol, nil, rx.scr, rx.mem.NoticeKeys(rx.me))
	replicas, aborted, err := exchangeReplicas(&in, local, cdc)
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
			recovering := rx.tel.Begin(rx.me, telemetry.PhaseRecover, telemetry.CatCompute, telemetry.StepNone)
			at := attempt{epoch: rx.mem.Epoch(), owners: owners, replicas: rx.replicas,
				dead: rx.deadMask(), notices: rx.mem.NoticeKeys(rx.me)}
			if at.epoch == 0 && opts.Pipeline.Enabled {
				// Only the first attempt is pipelined. runPipelined joins
				// every worker and drains the in-flight window before
				// returning, so an aborted attempt reaches the agreement
				// below fully quiesced; re-executions over repaired
				// schedules run synchronously.
				final, err = runPipelined(rx.c, plan, rx.local, rx.dst, opts, rx.cdc, rx.rep, rx.pol, at)
			} else {
				final, err = runSync(rx.c, plan, rx.local, rx.dst, opts, rx.cdc, rx.rep, rx.pol, at, rx.scr)
			}
			if at.epoch > 0 { // epoch 0 is the first attempt, not a recovery
				rx.tel.End(recovering)
			}
			// An aborted attempt is not an error: only local faults are.
			if aborted = errors.Is(err, errAborted); err != nil && !aborted {
				return nil, nil, err
			}
		}

		agree := rx.tel.Begin(rx.me, telemetry.PhaseAgree, telemetry.CatNetwork, telemetry.StepNone)
		newDead, err := comm.Agree(c, rx.mem, rx.agreeTO)
		rx.tel.End(agree)
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
			finalizeReport(c, rx.rep, rx.tel)
			return final, rx.rep, nil
		}

		// Retry path: enter the next epoch in lockstep with the survivors.
		rx.mem.Advance(newDead)
		rx.tel.Flight(rx.me, telemetry.FlightEpoch, telemetry.StepNone, -1, -1, "epoch advanced")
		rx.noticeSent.Store(false)
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
	if rx.mem.NumDead() > 0 {
		if plan, owners, err = schedule.Repair(sched, rx.mem.Dead()); err != nil {
			return nil, nil, err
		}
	}
	fopts := opts
	fopts.OnMissing = ComposePartial
	fpol := newFailPolicy(&fopts, nil, rx.me)
	rx.rep.resetDegradation()
	at := attempt{epoch: rx.mem.Epoch(), owners: owners, replicas: rx.replicas, dead: rx.deadMask()}
	final, err = runSync(c, plan, rx.local, rx.dst, fopts, rx.cdc, rx.rep, fpol, at, rx.scr)
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

// deadMask marks the ranks agreed dead so far — the ones a gather does not
// wait for.
func (rx *rexec) deadMask() []bool {
	dead := make([]bool, rx.sched.P)
	for _, d := range rx.mem.Dead() {
		dead[d] = true
	}
	return dead
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
// own fresh pixel array; all failures wrap codec.ErrCorrupt. The frame must
// declare the w×h the caller expects. A joiner expects none (w < 0): its
// frames are raw, and their declared size stands only if it is the size of
// the pixels that follow. Either way the size is settled before a pixel is
// allocated.
func decodeReplica(payload []byte, cdc codec.Codec, w, h int) (*raster.Image, error) {
	r := wire.NewReader(payload)
	rw, rh := r.Int(maxImageDim), r.Int(maxImageDim)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("compositor: %w: replica header: %v", codec.ErrCorrupt, err)
	}
	if w < 0 && r.Len() == rw*rh*raster.BytesPerPixel {
		w, h = rw, rh
	}
	if rw != w || rh != h {
		return nil, fmt.Errorf("compositor: %w: replica is %dx%d with %d payload bytes, want %dx%d",
			codec.ErrCorrupt, rw, rh, r.Len(), w, h)
	}
	rest := r.Bytes(r.Len())
	data, err := codec.Resolve(cdc, rest, w*h).DecodeInto(nil, rest, w*h)
	if err != nil {
		return nil, fmt.Errorf("compositor: decoding replica: %w", err)
	}
	return &raster.Image{W: w, H: h, Pix: data}, nil
}

// exchangeReplicas ships the local sub-image to this rank's buddy and
// collects the sub-images of the ranks this rank wards, all under
// tagReplica. What a failure means is the call of the inbox's policy. An
// aborting one still keeps collecting the remaining frames until the
// deadline — also after a peer's notice — so a late ward's replica is not
// thrown away: frames are sent exactly once and it may be the only copy
// left.
func exchangeReplicas(in *fabricInbox, local *raster.Image, cdc codec.Codec) (map[int]*raster.Image, bool, error) {
	c, tel := in.c, in.tel
	me, p := c.Rank(), c.Size()
	replicas := map[int]*raster.Image{}
	if p <= 1 {
		return replicas, false, nil
	}
	defer tel.End(tel.Begin(me, telemetry.PhaseReplicate, telemetry.CatNetwork, telemetry.StepNone))

	aborted := false
	frame := encodeReplica(local, cdc)
	buddy := schedule.Buddy(me, p)
	if err := c.Send(buddy, tagReplica, frame); err != nil {
		err = fmt.Errorf("compositor: replica send to buddy %d: %w", buddy, err)
		err = in.pol.rule(nil, false, evSendFailed, err, suspectsOf(err, buddy))
		if aborted = errors.Is(err, errAborted); err != nil && !aborted {
			return nil, false, err
		}
	} else {
		tel.Add(me, telemetry.CtrReplicaMsgs, 1)
		tel.Add(me, telemetry.CtrReplicaRawBytes, int64(len(local.Pix)))
		tel.Add(me, telemetry.CtrReplicaWireBytes, int64(len(frame)))
	}

	pending := in.scr.pending
	clear(pending)
	for _, w := range schedule.Wards(me, p) {
		pending[comm.MsgKey{From: w, Tag: tagReplica}] = schedule.Transfer{From: w}
	}
	for len(pending) > 0 {
		tr, payload, err := in.next(telemetry.StepNone, pending)
		switch {
		case errors.Is(err, errAborted):
			aborted = true
		case err != nil:
			return nil, false, fmt.Errorf("compositor: replica exchange: %w", err)
		case payload != nil:
			// decodeReplica decodes into a fresh image (DecodeInto never
			// aliases its input), so the wire buffer recycles either way. A
			// corrupt replica is dropped: the primary path does not need it,
			// and recovery of its rank would fall back to compose-partial.
			img, derr := decodeReplica(payload, cdc, local.W, local.H)
			bufpool.Put(payload)
			if derr == nil {
				replicas[tr.From] = img
			}
		}
	}
	return replicas, aborted, nil
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

// sendersOf lists the distinct source ranks of the transfers still pending,
// ascending.
func sendersOf(pending map[comm.MsgKey]schedule.Transfer) []int {
	set := map[int]bool{}
	for _, tr := range pending {
		set[tr.From] = true
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
