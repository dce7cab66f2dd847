// The recovery engine of the Recover policy: silence-based failure
// agreement, schedule repair over the survivors, dead layers rebuilt where
// they are needed and bounded re-execution — so a composition that loses a
// rank mid-frame still delivers the complete, pixel-exact image instead of
// a degraded one.
//
// The protocol runs in epochs. Epoch 0 executes the original schedule. Any
// failure signal — a missed receive deadline, a peer error, a FAILED notice
// from another rank — aborts the attempt: the aborting rank broadcasts a
// best-effort notice and falls through to the membership agreement
// (comm.Agree), which every live rank runs after every attempt, completed or
// aborted, voting which it was: the agreement is the commit.
// When the agreement declares new ranks dead, the survivors advance the
// epoch in lockstep, repair the schedule (schedule.Repair) so each dead
// layer is rebuilt by the nearest survivor in front of it in depth order
// (Options.Rebuild: every rank holds the input of every layer), and
// re-execute under epoch-scoped tags (stale traffic from the aborted attempt
// dies unread under its old tags). When no rank voted aborted and nobody
// died, the epoch commits. When the recovery budget is exhausted, or there
// is no Rebuild, one final compose-partial epoch salvages what it can and
// the result is forcibly flagged Degraded — it was never certified
// complete.
package compositor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
)

// DefaultMaxRecoveries is the re-execution budget when Options.MaxRecoveries
// is zero: enough for one genuine failure plus one false alarm.
const DefaultMaxRecoveries = 2

// The grace rule of Options.Grace, in silences: a deadline counted against a
// peer adds one, an arrival from the peer halves its count. A dead peer
// climbs one silence a deadline; a slow one that keeps delivering hovers
// below two.
const (
	graySilences     = 2 // a peer this silent is flagged gray (peer_gray)
	clearSilences    = 1 // a gray peer whose count falls below this is clear again
	escalateSilences = 6 // a suspect this silent ends the grace: six deadlines with no arrival between
)

// silence is one peer's count under Options.Grace.
type silence struct {
	n    float64
	gray bool
}

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

	// noticeSent guards the one FAILED notice this rank may broadcast per
	// epoch (the notice tag is unique per epoch).
	noticeSent atomic.Bool

	// maxRec and agreeTO are the resolved recovery budget and agreement
	// timeout (see runRecover); loop() shares them with the spare path.
	maxRec  int
	agreeTO time.Duration

	// rendered records that opts.Pipeline.Source has finished every tile of
	// local (see awaitRender).
	rendered bool

	// silences holds each peer's silence count under Options.Grace (nil
	// without it). Pipelined workers share the rexec, hence graceMu.
	graceMu  sync.Mutex
	silences []silence
}

// abort broadcasts this epoch's FAILED notice (once), and returns true so
// callers can write `aborted = rx.abort()`.
// Any goroutine of a pipelined attempt may end up here, hence the atomic
// guard and the send-serialized rx.c.
func (rx *rexec) abort() bool {
	if rx.noticeSent.CompareAndSwap(false, true) {
		comm.BroadcastFailure(rx.c, rx.mem)
		rx.tel.Add(rx.me, telemetry.CtrFailNotices, 1)
	}
	return true
}

// graceOrEscalate is the brownout-vs-death decision at a receive deadline:
// it counts the deadline against every suspect and reports whether the
// attempt should keep waiting (grace). Without Options.Grace the answer is
// always to abort — the silence-only semantics. With it, only a suspect
// escalateSilences deep hands the attempt to failure agreement; a
// slow-but-delivering peer's count halves on every arrival and never gets
// there.
func (rx *rexec) graceOrEscalate(suspects []int) bool {
	if rx.silences == nil || len(suspects) == 0 {
		return false
	}
	rx.graceMu.Lock()
	escalate := false
	for _, s := range suspects {
		ps := &rx.silences[s]
		ps.n++
		if !ps.gray && ps.n >= graySilences {
			ps.gray = true
			rx.tel.Add(rx.me, telemetry.CtrPeerGray, 1)
			rx.tel.Flight(rx.me, telemetry.FlightGray, telemetry.StepNone, -1, s,
				fmt.Sprintf("peer gray: silences=%.1f", ps.n))
		}
		escalate = escalate || ps.n >= escalateSilences
	}
	rx.graceMu.Unlock()
	if escalate {
		rx.tel.Add(rx.me, telemetry.CtrHealthEscalations, 1)
		return false
	}
	rx.tel.Add(rx.me, telemetry.CtrDeadlineGrace, 1)
	rx.tel.Flight(rx.me, telemetry.FlightGray, telemetry.StepNone, -1, -1,
		fmt.Sprintf("deadline grace for ranks %v", suspects))
	return true
}

// arrived halves the sender's silence count; without grace (or outside a
// Recover attempt, rx nil) it is a nil check.
func (rx *rexec) arrived(from int) {
	if rx == nil || rx.silences == nil {
		return
	}
	rx.graceMu.Lock()
	defer rx.graceMu.Unlock()
	ps := &rx.silences[from]
	ps.n *= 0.5
	if ps.gray && ps.n < clearSilences {
		ps.gray = false
		rx.tel.Flight(rx.me, telemetry.FlightGray, telemetry.StepNone, -1, from,
			fmt.Sprintf("peer recovered: silences=%.2f", ps.n))
	}
}

// newRexec resolves the recovery budget and agreement timeout and builds the
// per-rank state; the caller releases rx.scr.
func newRexec(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options, cdc codec.Codec,
	rep *Report, mem *comm.Membership) *rexec {
	rx := &rexec{
		// A pipelined attempt sends the FAILED notice from whichever of its
		// goroutines hits the failure, while its workers are sending blocks.
		c:      &lockedComm{Comm: c},
		sched:  sched,
		local:  local,
		opts:   opts,
		cdc:    cdc,
		rep:    rep,
		tel:    opts.Telemetry,
		me:     c.Rank(),
		mem:    mem,
		scr:    newRunScratch(),
		maxRec: opts.MaxRecoveries,
		// Enough for a peer that was still blocked on the dead rank to
		// reach the agreement late.
		agreeTO: 3 * opts.RecvTimeout,
	}
	if rx.maxRec == 0 {
		rx.maxRec = DefaultMaxRecoveries
	} else if rx.maxRec < 0 {
		rx.maxRec = 0
	}
	if opts.Grace {
		rx.silences = make([]silence, c.Size())
	}
	rx.pol = newFailPolicy(&opts, rx, rx.me)
	return rx
}

// runRecover executes the composition under the Recover policy.
func runRecover(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options, cdc codec.Codec) (*raster.Image, *Report, error) {
	if opts.RecvTimeout <= 0 {
		return nil, nil, fmt.Errorf("compositor: the recover policy requires a positive RecvTimeout (failure detection is deadline-based)")
	}
	rx := newRexec(c, sched, local, opts, cdc, &Report{Rank: c.Rank()}, comm.NewMembership(sched.P))
	rx.dst = dst
	defer rx.scr.release()
	return rx.loop()
}

// loop is the epoch engine shared by the survivors (runRecover) and a
// rejoined spare (RunSpare): attempt, agreement, commit-or-advance, the
// admission of a spare the agreement certified, and the compose-partial
// fallback once the budget is spent or there is no Rebuild.
func (rx *rexec) loop() (*raster.Image, *Report, error) {
	c, sched, opts := rx.c, rx.sched, rx.opts
	recoveries := 0
	for {
		// Repair reverts to the original schedule (and owner map) when
		// every failed rank has rejoined — the healed mesh composites at
		// full pre-failure capacity.
		plan, owners, err := schedule.Repair(sched, rx.mem.Dead())
		if err != nil {
			return nil, nil, err
		}
		recovering := rx.tel.Begin(rx.me, telemetry.PhaseRecover, telemetry.CatCompute, telemetry.StepNone)
		at := attempt{epoch: rx.mem.Epoch(), owners: owners, dead: rx.deadMask(), notices: rx.mem.NoticeKeys(rx.me)}
		var final *raster.Image
		if at.epoch == 0 && opts.Pipeline.Enabled {
			// Only the first attempt is pipelined. runPipelined joins every
			// worker and drains the in-flight window before returning, so an
			// aborted attempt reaches the agreement below fully quiesced;
			// re-executions over repaired schedules run synchronously.
			final, err = runPipelined(rx.c, plan, rx.local, rx.dst, opts, rx.cdc, rx.rep, rx.pol, at)
		} else if err = rx.awaitRender(); err == nil {
			final, err = runSync(rx.c, plan, rx.local, rx.dst, opts, rx.cdc, rx.rep, rx.pol, at, rx.scr)
		}
		if at.epoch > 0 { // epoch 0 is the first attempt, not a recovery
			rx.tel.End(recovering)
		}
		// An aborted attempt is not an error: only local faults are.
		aborted := errors.Is(err, errAborted)
		if err != nil && !aborted {
			return nil, nil, err
		}

		agree := rx.tel.Begin(rx.me, telemetry.PhaseAgree, telemetry.CatNetwork, telemetry.StepNone)
		newDead, certified, commit, err := comm.Agree(c, rx.mem, aborted, rx.drainHellos(), rx.agreeTO)
		rx.tel.End(agree)
		if err != nil {
			// Includes comm.ErrEvicted: the survivors condemned this rank
			// under too-tight deadlines; it must stop participating.
			return nil, nil, fmt.Errorf("compositor: epoch %d agreement: %w", rx.mem.Epoch(), err)
		}
		if commit {
			// The attempt completed everywhere and nobody died.
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
		if rx.admit(certified) {
			// The healed mesh is not still charged for the failure it
			// already repaired.
			recoveries = 0
		}
		// Any survivor can rebuild a dead layer, given a Rebuild to call.
		if recoveries >= rx.maxRec || (opts.Rebuild == nil && rx.mem.NumDead() > 0) {
			break
		}
		recoveries++
		rx.rep.resetDegradation()
	}

	// Fallback: one compose-partial epoch over the repaired plan. Every dead
	// layer is still rebuilt, given a Rebuild; the result is forcibly
	// flagged Degraded because it was never certified.
	plan, owners, err := schedule.Repair(sched, rx.mem.Dead())
	if err != nil {
		return nil, nil, err
	}
	fopts := opts
	fopts.OnMissing = ComposePartial
	fpol := newFailPolicy(&fopts, nil, rx.me)
	rx.rep.resetDegradation()
	if err := rx.awaitRender(); err != nil {
		return nil, nil, err
	}
	at := attempt{epoch: rx.mem.Epoch(), owners: owners, dead: rx.deadMask()}
	final, err := runSync(c, plan, rx.local, rx.dst, fopts, rx.cdc, rx.rep, fpol, at, rx.scr)
	if err != nil {
		return nil, nil, err
	}
	rx.rep.Degraded = true
	rx.rep.Recovered = false
	rx.rep.RecoveryEpochs = recoveries + 1
	for l, o := range owners {
		if o != l {
			rx.rep.RecoveredRanks = append(rx.rep.RecoveredRanks, l)
		}
	}
	rx.tel.Add(rx.me, telemetry.CtrRecoveryEpochs, int64(rx.rep.RecoveryEpochs))
	finalizeReport(c, rx.rep, rx.tel)
	return final, rx.rep, nil
}

// awaitRender blocks until opts.Pipeline.Source has rendered every tile of
// local. A pipelined epoch 0 waits per tile and stops claiming tiles when it
// aborts, so a synchronous re-execution (or the fallback), which stages the
// whole of local at once, must not start before the render has finished; a
// healthy pipelined frame never calls it and keeps its render overlap.
func (rx *rexec) awaitRender() error {
	src := rx.opts.Pipeline.Source
	if rx.rendered || src == nil || !rx.opts.Pipeline.Enabled {
		return nil
	}
	for t, span := range rx.sched.TileSpans(rx.local.NPixels()) {
		if err := src.WaitTile(t, span); err != nil {
			return fmt.Errorf("compositor: tile %d render: %w", t, err)
		}
	}
	rx.rendered = true
	return nil
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
