// The self-healing half of the Recover policy: spare-rank rejoin.
//
// A standby process calls RunSpare for a dead rank's slot. It first renders
// the layer of its slot (Options.Rebuild) — every rank holds the input of
// every layer, so a spare needs no state from the mesh. It then broadcasts a
// JOIN-HELLO (re-sent every receive timeout so a hello lost to an aborted
// round is not fatal) and waits for an ADMIT from any peer. The survivors,
// on every membership change, drain pending hellos and certify the (rank,
// nonce) pairs through the two-round join agreement, so every survivor picks
// the same joiner. The lowest live rank then sends the ADMIT carrying the
// join epoch and the dead set, the joiner answers every survivor with an
// empty JOIN-DONE, at which point every survivor revives the slot in
// lockstep and the next epoch composites at full capacity over the original
// schedule. Once a member, the spare rebuilds a dead layer like any other
// survivor.
package compositor

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
)

// helloPollTimeout bounds each coalescing poll of drainHellos once a first
// hello has landed: a straggler's hello already in flight makes it, and
// every survivor converges on the same set quickly.
const helloPollTimeout = 5 * time.Millisecond

// joinNonce distinguishes spare incarnations process-wide: an ADMIT echoes
// the nonce, so a spare never acts on an admission meant for a predecessor.
var joinNonce atomic.Uint64

// RejoinTimeoutError is returned by RunSpare when the bounded rejoin window
// elapsed without an admission — the mesh never saw the hello, or decided to
// degrade instead.
type RejoinTimeoutError struct {
	Ranks   []int
	Timeout time.Duration
}

func (e *RejoinTimeoutError) Error() string {
	return fmt.Sprintf("compositor: rank slots %v were not rejoined within %v", e.Ranks, e.Timeout)
}

// attemptRejoin gives a registered spare one bounded chance to take over a
// dead slot, right after a membership change and before the budget decides
// to degrade. It reports how many slots were revived; a successful rejoin
// resets the caller's recovery budget.
func (rx *rexec) attemptRejoin() (int, error) {
	deadline := time.Now().Add(rx.opts.RejoinTimeout)
	n, err := rx.rejoinOnce(deadline)
	if err != nil {
		return 0, err
	}
	if n > 0 {
		rx.rep.Rejoined = true
		rx.rep.RejoinEpochs++
		rx.tel.Add(rx.me, telemetry.CtrRejoins, 1)
	}
	return n, nil
}

// rejoinOnce runs one join round on a survivor, phase by phase: drain the
// hellos, certify them, pick at most one joiner (the lowest certified dead
// rank), admit it from the lowest live rank, wait for JOIN-DONE and
// revive. It returns the number of slots revived (0 or 1); 0 with a nil
// error means no admissible spare this round — the caller degrades.
//
// At most one slot is revived per membership change: the freshly revived
// member re-enters the composition immediately, so a second agreement round
// behind its back would stall against its silence. Additional dead slots get
// their chance at the next membership change (or the next frame).
func (rx *rexec) rejoinOnce(deadline time.Time) (int, error) {
	defer rx.tel.End(rx.tel.Begin(rx.me, telemetry.PhaseJoin, telemetry.CatNetwork, telemetry.StepNone))
	hellos, err := rx.drainHellos(deadline)
	if err != nil {
		return 0, err
	}
	// Certify the union. The timeout is padded by the remaining rejoin
	// window: a peer that heard its hello instantly may reach the agreement
	// up to a full window earlier than one that waited it out. An aborted
	// agreement (a survivor was silent; the failure machinery decides)
	// certifies nothing, and nobody is picked.
	agreeTimeout := rx.agreeTO + max(time.Until(deadline), 0)
	certified, err := comm.AgreeJoin(rx.c, rx.mem, hellos, agreeTimeout)
	if err != nil {
		return 0, err
	}
	joinEpoch := rx.mem.Epoch() + 1
	joiner, admit := rx.pickJoiner(certified, joinEpoch)
	if joiner < 0 {
		return 0, nil
	}
	// Every survivor finds the same lowest live rank in the same dead set.
	sponsor := 0
	for !rx.mem.Alive(sponsor) {
		sponsor++
	}
	if sponsor == rx.me {
		// Best-effort: if the spare died, the JOIN-DONE wait times out
		// identically on every survivor.
		_ = rx.c.Send(joiner, comm.TagJoinAdmit, admit.Encode())
	}
	return rx.awaitDone(joiner, joinEpoch, agreeTimeout)
}

// drainHellos collects the pending JOIN-HELLOs of the dead slots; the join
// agreement keeps each slot's latest incarnation. The first wait is the
// rejoin window itself (a spare may not have announced yet); once any hello
// has landed, short coalescing polls pick up stragglers so every survivor
// converges on the same set quickly.
func (rx *rexec) drainHellos(deadline time.Time) ([]comm.JoinHello, error) {
	var hellos []comm.JoinHello
	var keys []comm.MsgKey
	for _, d := range rx.mem.Dead() {
		keys = append(keys, comm.MsgKey{From: d, Tag: comm.TagJoinHello})
	}
	for len(keys) > 0 {
		wait := comm.Deadline(helloPollTimeout)
		if len(hellos) == 0 && wait.Before(deadline) {
			wait = deadline
		}
		from, _, payload, err := rx.c.RecvAny(keys, wait)
		var perr *comm.PeerError
		switch {
		case errors.As(err, &perr):
			keys = slices.DeleteFunc(keys, func(k comm.MsgKey) bool { return k.From == perr.Rank })
		case errors.Is(err, comm.ErrDeadline):
			return hellos, nil
		case err != nil:
			return nil, fmt.Errorf("compositor: draining join hellos: %w", err)
		default:
			h, derr := comm.DecodeJoinHello(payload)
			bufpool.Put(payload)
			// Garbage on the hello tag proves nothing.
			if derr == nil && h.Rank == from {
				hellos = append(hellos, h)
			}
		}
	}
	return hellos, nil
}

// pickJoiner deterministically picks the joiner and writes its ADMIT: the
// lowest certified dead rank, or -1. Every survivor sees the identical
// certified set and dead set, so every survivor picks the same.
func (rx *rexec) pickJoiner(certified []comm.JoinHello, joinEpoch int) (int, comm.JoinAdmit) {
	p := rx.c.Size()
	for _, o := range certified {
		if o.Rank >= p || rx.mem.Alive(o.Rank) {
			continue
		}
		admit := comm.JoinAdmit{Nonce: o.Nonce, Epoch: joinEpoch}
		for _, d := range rx.mem.Dead() {
			if d != o.Rank {
				admit.Dead = append(admit.Dead, d)
			}
		}
		return o.Rank, admit
	}
	return -1, comm.JoinAdmit{}
}

// awaitDone waits for the joiner's JOIN-DONE and revives the slot — in
// lockstep with every other survivor, who got the same message or the same
// silence.
func (rx *rexec) awaitDone(joiner, joinEpoch int, timeout time.Duration) (int, error) {
	_, _, data, err := rx.c.RecvAny([]comm.MsgKey{{From: joiner, Tag: comm.JoinDoneTag(joinEpoch)}}, comm.Deadline(timeout))
	if err != nil && !comm.IsRecoverable(err) {
		return 0, fmt.Errorf("compositor: waiting for JOIN-DONE from rank %d: %w", joiner, err)
	}
	outcome := "no JOIN-DONE"
	if err == nil {
		done := len(data) == 0
		bufpool.Put(data)
		if done {
			rx.mem.Revive([]int{joiner})
			rx.rep.RejoinedRanks = append(rx.rep.RejoinedRanks, joiner)
			rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
				fmt.Sprintf("rank %d rejoined at epoch %d", joiner, rx.mem.Epoch()))
			return 1, nil
		}
		outcome = "a non-empty JOIN-DONE"
	}
	rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("join of rank %d failed: %s", joiner, outcome))
	return 0, nil
}

// RunSpare runs a standby process that takes over the given (dead) rank slot
// of a Recover-policy composition: it renders its own layer with
// opts.Rebuild, announces itself, and once admitted continues the
// composition as a full member — returning the same results Run would have.
// Requires a Rebuild and positive RecvTimeout and RejoinTimeout; returns
// *RejoinTimeoutError when the mesh never admits it within the window.
func RunSpare(c comm.Comm, sched *schedule.Schedule, opts Options) (*raster.Image, *Report, error) {
	if c.Size() != sched.P {
		return nil, nil, fmt.Errorf("compositor: communicator has %d ranks, schedule wants %d", c.Size(), sched.P)
	}
	if opts.RecvTimeout <= 0 || opts.RejoinTimeout <= 0 || opts.Rebuild == nil {
		return nil, nil, fmt.Errorf("compositor: RunSpare requires a Rebuild and positive RecvTimeout and RejoinTimeout")
	}
	cdc := opts.Codec
	if cdc == nil {
		cdc = codec.Raw{}
	}
	me, p, tel := c.Rank(), sched.P, opts.Telemetry
	local, err := opts.Rebuild(me)
	if err != nil {
		return nil, nil, fmt.Errorf("compositor: spare layer %d: %w", me, err)
	}

	join := tel.Begin(me, telemetry.PhaseJoin, telemetry.CatNetwork, telemetry.StepNone)
	admit, err := awaitAdmit(c, opts)
	tel.End(join)
	if err != nil {
		return nil, nil, err
	}
	for r := 0; r < p; r++ {
		if r != me && !slices.Contains(admit.Dead, r) {
			_ = c.Send(r, comm.JoinDoneTag(admit.Epoch), nil)
		}
	}
	tel.Add(me, telemetry.CtrRejoins, 1)
	tel.Flight(me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("rejoined slot %d at epoch %d", me, admit.Epoch))

	// Continue as a full member: the same epoch engine the survivors run,
	// resumed at the certified join epoch with the certified dead set.
	rep := &Report{Rank: me, Rejoined: true, RejoinEpochs: 1, RejoinedRanks: []int{me}}
	rx := newRexec(c, sched, local, opts, cdc, rep, comm.Resume(p, admit.Epoch, admit.Dead))
	defer rx.scr.release()
	return rx.loop()
}

// awaitAdmit announces this spare to every rank and waits, for the rejoin
// window, for an ADMIT from any peer (the survivors' lowest live rank sends
// it) — re-announcing every receive timeout so a hello consumed by an
// aborted join round does not strand it.
func awaitAdmit(c comm.Comm, opts Options) (comm.JoinAdmit, error) {
	me, p := c.Rank(), c.Size()
	nonce := joinNonce.Add(1)
	hello := comm.JoinHello{Rank: me, Nonce: nonce}.Encode()
	announce := func() {
		for r := 0; r < p; r++ {
			if r != me {
				_ = c.Send(r, comm.TagJoinHello, hello)
			}
		}
	}
	announce()
	deadline := time.Now().Add(opts.RejoinTimeout)
	var admitKeys []comm.MsgKey
	for r := 0; r < p; r++ {
		if r != me {
			admitKeys = append(admitKeys, comm.MsgKey{From: r, Tag: comm.TagJoinAdmit})
		}
	}
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return comm.JoinAdmit{}, &RejoinTimeoutError{Ranks: []int{me}, Timeout: opts.RejoinTimeout}
		}
		wait := now.Add(opts.RecvTimeout)
		if deadline.Before(wait) {
			wait = deadline
		}
		_, _, payload, err := c.RecvAny(admitKeys, wait)
		var perr *comm.PeerError
		switch {
		case errors.Is(err, comm.ErrDeadline):
			announce()
		case errors.As(err, &perr):
			// A failed peer admits nobody; any other may.
			admitKeys = slices.DeleteFunc(admitKeys, func(k comm.MsgKey) bool { return k.From == perr.Rank })
			if len(admitKeys) == 0 {
				return comm.JoinAdmit{}, fmt.Errorf("compositor: waiting for join admit: every peer failed: %w", err)
			}
		case err != nil:
			return comm.JoinAdmit{}, fmt.Errorf("compositor: waiting for join admit: %w", err)
		default:
			admit, derr := comm.DecodeJoinAdmit(payload)
			bufpool.Put(payload)
			if derr == nil && admit.Nonce == nonce { // else garbled, or an admission meant for a predecessor
				return admit, nil
			}
		}
	}
}
