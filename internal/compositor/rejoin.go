// The self-healing half of the Recover policy: spare-rank rejoin.
//
// A standby process calls RunSpare for a dead rank's slot. It first renders
// the layer of its slot (Options.Rebuild) — every rank holds the input of
// every layer, so a spare needs no state from the mesh. It then broadcasts a
// JOIN-HELLO (re-sent every receive timeout so a hello lost to the fault
// layer is not fatal) and waits, for Options.RejoinTimeout, for an ADMIT
// from any peer. The survivors take the hellos already in their mailboxes
// before every agreement and offer them in its votes, so comm.Agree
// certifies the same (rank, nonce) pairs on every survivor with the dead
// set. When a certified offer names a dead slot, the lowest live rank sends
// the ADMIT carrying the join epoch and the dead set, every survivor
// revives the slot in the same step, and the next epoch runs with the
// joiner in it — a joiner that does not show up fails that epoch like any
// dead rank. A spare whose hello reaches no survivor before the frame's
// last agreement is not admitted in that frame. Once a member, the spare
// rebuilds a dead layer like any other survivor.
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

// joinNonce distinguishes spare incarnations process-wide: an ADMIT echoes
// the nonce, so a spare never acts on an admission meant for a predecessor.
var joinNonce atomic.Uint64

// RejoinTimeoutError is returned by RunSpare when its admission window
// elapsed without an ADMIT — no survivor drained its hello before an
// agreement that left its slot dead.
type RejoinTimeoutError struct {
	Ranks   []int
	Timeout time.Duration
}

func (e *RejoinTimeoutError) Error() string {
	return fmt.Sprintf("compositor: rank slots %v were not rejoined within %v", e.Ranks, e.Timeout)
}

// drainHellos takes the JOIN-HELLOs already in the mailbox from every peer,
// without waiting for one: a hello that arrives later is offered at the
// next agreement, if there is one. A fabric hands over a queued message
// before it reports the deadline or a failed peer, so the first error ends
// the drain; a fault of the local endpoint surfaces in the Agree that
// follows.
func (rx *rexec) drainHellos() []comm.JoinHello {
	var hellos []comm.JoinHello
	var keys []comm.MsgKey
	for r := 0; r < rx.c.Size(); r++ {
		if r != rx.me {
			keys = append(keys, comm.MsgKey{From: r, Tag: comm.TagJoinHello})
		}
	}
	now := time.Now()
	for {
		from, _, payload, err := rx.c.RecvAny(keys, now)
		if err != nil {
			return hellos
		}
		h, derr := comm.DecodeJoinHello(payload)
		bufpool.Put(payload)
		// Garbage on the hello tag proves nothing.
		if derr == nil && h.Rank == from {
			hellos = append(hellos, h)
		}
	}
}

// admit revives the lowest dead slot a certified offer names, if any, and
// reports whether it did. Every survivor holds the same certified offers and
// the same dead set, so every survivor revives the same slot in the same
// step; the lowest live rank sends the joiner its ADMIT, best-effort — a
// joiner that does not show up fails the next epoch like any dead rank.
func (rx *rexec) admit(certified []comm.JoinHello) bool {
	for _, o := range certified {
		if o.Rank >= rx.c.Size() || rx.mem.Alive(o.Rank) {
			continue
		}
		a := comm.JoinAdmit{Nonce: o.Nonce, Epoch: rx.mem.Epoch() + 1}
		for _, d := range rx.mem.Dead() {
			if d != o.Rank {
				a.Dead = append(a.Dead, d)
			}
		}
		sponsor := 0
		for !rx.mem.Alive(sponsor) {
			sponsor++
		}
		if sponsor == rx.me {
			_ = rx.c.Send(o.Rank, comm.TagJoinAdmit, a.Encode())
		}
		rx.mem.Revive([]int{o.Rank})
		rx.rep.Rejoined = true
		rx.rep.RejoinEpochs++
		rx.rep.RejoinedRanks = append(rx.rep.RejoinedRanks, o.Rank)
		rx.tel.Add(rx.me, telemetry.CtrRejoins, 1)
		rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
			fmt.Sprintf("rank %d admitted at epoch %d", o.Rank, rx.mem.Epoch()))
		return true
	}
	return false
}

// RunSpare runs a standby process that takes over the given (dead) rank slot
// of a Recover-policy composition: it renders its own layer with
// opts.Rebuild, announces itself, and once admitted continues the
// composition as a full member — returning the same results Run would have.
// Requires a Rebuild and positive RecvTimeout and RejoinTimeout; returns
// *RejoinTimeoutError when the mesh does not admit it within RejoinTimeout.
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

// awaitAdmit announces this spare to every rank and waits, for
// RejoinTimeout, for an ADMIT from any peer (the survivors' lowest live rank
// sends it) — re-announcing every receive timeout so a hello lost to the
// fault layer, or drained at an agreement that left its slot alive, does not
// strand it.
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
