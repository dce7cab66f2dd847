// The self-healing half of the Recover policy: spare-rank rejoin with
// merkle-verified state transfer, plus the replica scrub exchange.
//
// A standby process calls RunSpare for a dead rank's slot. It broadcasts a
// JOIN-HELLO (re-sent every receive timeout so a hello lost to an aborted
// round is not fatal) and waits for an ADMIT from its buddy. The survivors,
// on every membership change, drain pending hellos, build content-addressed
// snapshots of the state they can contribute (the joiner's sub-image from
// its buddy's replica, and the joiner's ward replicas from their live
// sources), and certify the offers — including every snapshot's merkle
// manifest — through the two-round join agreement, so the commitment the
// joiner verifies against was seen identically by every survivor. The buddy
// then sends the ADMIT carrying the certified manifests and the join epoch,
// the contributors stream their chunks, and the joiner verifies every chunk
// against the certified roots — rejecting corrupt or stale transfers with
// typed statexfer errors — before announcing JOIN-DONE, at which point every
// survivor revives the slot in lockstep and the next epoch composites at
// full capacity over the original (restored) schedule.
package compositor

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/statexfer"
	"rtcomp/internal/telemetry"
)

// rejoinChunkSize is the snapshot chunk size of the join transfer and the
// scrubber's hashing granularity: small enough that even a single-tile
// sub-image spans several chunks (so corruption is rejected after one chunk
// and the verified-chunk counters exercise the multi-chunk path), large
// enough that a real frame is a handful of messages.
const rejoinChunkSize = 4 << 10

// helloPollTimeout bounds each coalescing poll of drainHellos once a first
// hello has landed: a straggler's hello already in flight makes it, and
// every survivor converges on the same set quickly.
const helloPollTimeout = 5 * time.Millisecond

// Epoch-0-style reserved tags of the scrub exchange, in the same sub-2^40
// band as the replica exchange (step tags always carry step+1 >= 1 in bits
// 40+). The exchange runs once, before epoch 0's attempt, so the tags need
// no epoch scoping.
const (
	tagScrubReq = (1 << 39) + 0x5351 // scrub refresh request ("SQ")
	tagScrubRep = (1 << 39) + 0x5352 // scrub refresh reply ("SR")
)

// Section names inside a join snapshot. The subimage section restores the
// joiner's own layer; a ward section restores the replica the joiner held
// for rank W (so a later death of W is still recoverable — the headline
// chaos scenario: kill a rank, rejoin a spare, then kill its buddy).
const (
	secSubimage   = "subimage"
	secWardPrefix = "ward:"
)

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

func scrubKey(ward int) string { return "replica:" + strconv.Itoa(ward) }

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
// hellos, build and certify the offers, pick at most one joiner (lowest
// certified rank with a verifiable buddy commitment), sponsor it and stream
// this rank's contribution, wait for JOIN-DONE and revive. It returns the
// number of slots revived (0 or 1); 0 with a nil error means no admissible
// spare this round — the caller degrades.
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
	joinEpoch := rx.mem.Epoch() + 1
	offers, snaps, err := rx.buildOffers(hellos, joinEpoch)
	if err != nil {
		return 0, err
	}
	// Certify the union. The timeout is padded by the remaining rejoin
	// window: a peer that heard its hello instantly may reach the agreement
	// up to a full window earlier than one that waited it out. An aborted
	// agreement (a survivor was silent; the failure machinery decides)
	// certifies nothing, and nobody is picked.
	agreeTimeout := rx.agreeTO + max(time.Until(deadline), 0)
	certified, err := comm.AgreeJoin(rx.c, rx.mem, offers, agreeTimeout)
	if err != nil {
		return 0, err
	}
	joiner, admit := rx.pickJoiner(certified, joinEpoch)
	if joiner < 0 {
		return 0, nil
	}
	rx.sponsor(joiner, admit, snaps[joiner])
	return rx.awaitDone(joiner, joinEpoch, agreeTimeout)
}

// drainHellos collects the pending JOIN-HELLOs of the dead slots: per slot,
// the nonce of its latest incarnation. The first wait is the rejoin window
// itself (a spare may not have announced yet); once any hello has landed,
// short coalescing polls pick up stragglers so every survivor converges on
// the same set quickly.
func (rx *rexec) drainHellos(deadline time.Time) (map[int]uint64, error) {
	hellos := map[int]uint64{}
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
			// Garbage on the hello tag proves nothing; the latest incarnation
			// wins, and re-sent hellos coalesce.
			if derr == nil && h.Rank == from && h.Nonce >= hellos[from] {
				hellos[from] = h.Nonce
			}
		}
	}
	return hellos, nil
}

// buildOffers turns the drained hellos into this rank's offers: for each
// announced joiner, a snapshot of the state this rank can contribute — the
// joiner's sub-image from the replica its buddy holds, and this rank's own
// live sub-image where the joiner wards it — committed by its merkle
// manifest. The snapshots come back keyed by joiner, to stream from.
func (rx *rexec) buildOffers(hellos map[int]uint64, joinEpoch int) ([]comm.JoinOffer, map[int]*statexfer.Snapshot, error) {
	p := rx.c.Size()
	var offers []comm.JoinOffer
	snaps := map[int]*statexfer.Snapshot{}
	for r, nonce := range hellos {
		var secs []statexfer.Section
		if img := rx.replicas[r]; img != nil && schedule.Buddy(r, p) == rx.me {
			secs = append(secs, statexfer.Section{Name: secSubimage, Data: encodeReplica(img, codec.Raw{})})
		}
		if schedule.Buddy(rx.me, p) == r {
			secs = append(secs, statexfer.Section{Name: secWardPrefix + strconv.Itoa(rx.me), Data: encodeReplica(rx.local, codec.Raw{})})
		}
		offer := comm.JoinOffer{Rank: r, Nonce: nonce}
		if len(secs) > 0 {
			snap, err := statexfer.Build(r, rx.me, joinEpoch, secs, rejoinChunkSize)
			if err != nil {
				return nil, nil, err
			}
			snaps[r] = snap
			offer.Commits = []comm.JoinCommit{{Source: rx.me, Manifest: snap.Manifest.Encode()}}
		}
		offers = append(offers, offer)
	}
	return offers, snaps, nil
}

// pickJoiner deterministically picks the joiner and writes its ADMIT: the
// lowest certified dead rank whose buddy committed a verifiable sub-image
// snapshot, or -1. Every survivor sees the identical certified set, so every
// survivor picks the same.
func (rx *rexec) pickJoiner(certified []comm.JoinOffer, joinEpoch int) (int, comm.JoinAdmit) {
	p := rx.c.Size()
	for _, o := range certified {
		if o.Rank >= p || rx.mem.Alive(o.Rank) {
			continue
		}
		admit := comm.JoinAdmit{Nonce: o.Nonce, Epoch: joinEpoch}
		for _, cm := range o.Commits {
			// A stale or garbled commitment is never certified to the joiner.
			m, derr := statexfer.DecodeManifest(cm.Manifest)
			if derr == nil && m.Source == cm.Source && statexfer.CheckIdentity(m, o.Rank, joinEpoch) == nil {
				admit.Commits = append(admit.Commits, cm)
			}
		}
		if !commitsHaveSource(admit.Commits, schedule.Buddy(o.Rank, p)) {
			continue // nobody can restore the sub-image; the slot stays dead
		}
		for _, d := range rx.mem.Dead() {
			if d != o.Rank {
				admit.Dead = append(admit.Dead, d)
			}
		}
		return o.Rank, admit
	}
	return -1, comm.JoinAdmit{}
}

// sponsor sends the ADMIT, on the joiner's buddy, and streams this rank's
// certified contribution. All sends are best-effort — if the spare died, the
// JOIN-DONE wait times out identically on every survivor.
func (rx *rexec) sponsor(joiner int, admit comm.JoinAdmit, snap *statexfer.Snapshot) {
	if schedule.Buddy(joiner, rx.c.Size()) == rx.me {
		_ = rx.c.Send(joiner, comm.TagJoinAdmit, admit.Encode())
	}
	if snap == nil || !commitsHaveSource(admit.Commits, rx.me) {
		return
	}
	defer rx.tel.End(rx.tel.Begin(rx.me, telemetry.PhaseXfer, telemetry.CatNetwork, telemetry.StepNone))
	for i := 0; i < snap.NumChunks(); i++ {
		_ = rx.c.Send(joiner, comm.JoinXferTag(admit.Epoch, i), snap.ChunkFrame(i))
	}
}

// awaitDone waits for the joiner's JOIN-DONE and, when the transfer verified,
// revives the slot — in lockstep with every other survivor, who got the same
// frame or the same silence.
func (rx *rexec) awaitDone(joiner, joinEpoch int, timeout time.Duration) (int, error) {
	_, _, data, err := rx.c.RecvAny([]comm.MsgKey{{From: joiner, Tag: comm.JoinDoneTag(joinEpoch)}}, comm.Deadline(timeout))
	if err != nil && !comm.IsRecoverable(err) {
		return 0, fmt.Errorf("compositor: waiting for JOIN-DONE from rank %d: %w", joiner, err)
	}
	outcome := "no JOIN-DONE"
	if err == nil {
		ok, _, derr := comm.DecodeJoinDone(data)
		bufpool.Put(data)
		if derr == nil && ok {
			rx.mem.Revive([]int{joiner})
			rx.rep.RejoinedRanks = append(rx.rep.RejoinedRanks, joiner)
			rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
				fmt.Sprintf("rank %d rejoined at epoch %d", joiner, rx.mem.Epoch()))
			return 1, nil
		}
		outcome = "transfer rejected"
	}
	rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("join of rank %d failed: %s", joiner, outcome))
	return 0, nil
}

func commitsHaveSource(commits []comm.JoinCommit, source int) bool {
	return slices.ContainsFunc(commits, func(c comm.JoinCommit) bool { return c.Source == source })
}

// RunSpare runs a standby process that takes over the given (dead) rank slot
// of a Recover-policy composition: it announces itself, receives the
// merkle-verified state transfer, and continues the composition as a full
// member — returning the same results Run would have. Requires positive
// RecvTimeout and RejoinTimeout; returns *RejoinTimeoutError when the mesh
// never admits it within the window, and a typed statexfer error when the
// transfer is corrupt or stale.
func RunSpare(c comm.Comm, sched *schedule.Schedule, opts Options) (*raster.Image, *Report, error) {
	if c.Size() != sched.P {
		return nil, nil, fmt.Errorf("compositor: communicator has %d ranks, schedule wants %d", c.Size(), sched.P)
	}
	if opts.RecvTimeout <= 0 || opts.RejoinTimeout <= 0 {
		return nil, nil, fmt.Errorf("compositor: RunSpare requires positive RecvTimeout and RejoinTimeout")
	}
	cdc := opts.Codec
	if cdc == nil {
		cdc = codec.Raw{}
	}
	me, p, tel := c.Rank(), sched.P, opts.Telemetry
	join := tel.Begin(me, telemetry.PhaseJoin, telemetry.CatNetwork, telemetry.StepNone)
	admit, err := awaitAdmit(c, opts)
	tel.End(join)
	if err != nil {
		return nil, nil, err
	}

	// The transfer has one way to fail, whatever failed in it: the survivors
	// learn via JOIN-DONE, and keep recovering without this spare.
	xfer := tel.Begin(me, telemetry.PhaseXfer, telemetry.CatNetwork, telemetry.StepNone)
	local, replicas, verified, err := receiveState(c, opts, admit)
	tel.End(xfer)
	done := comm.EncodeJoinDone(err == nil, verified)
	for r := 0; r < p; r++ {
		if r != me && !slices.Contains(admit.Dead, r) {
			_ = c.Send(r, comm.JoinDoneTag(admit.Epoch), done)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	tel.Add(me, telemetry.CtrRejoins, 1)
	tel.Flight(me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("rejoined slot %d at epoch %d, %d chunks verified", me, admit.Epoch, verified))

	// Continue as a full member: the same epoch engine the survivors run,
	// resumed at the certified join epoch with the certified dead set.
	rep := &Report{Rank: me, Rejoined: true, RejoinEpochs: 1, RejoinedRanks: []int{me}}
	rx := newRexec(c, sched, local, opts, cdc, rep, comm.Resume(p, admit.Epoch, admit.Dead), replicas)
	defer rx.scr.release()
	return rx.loop(false)
}

// awaitAdmit announces this spare to every rank and waits, for the rejoin
// window, for the ADMIT its buddy sponsors — re-announcing every receive
// timeout so a hello consumed by an aborted join round does not strand it.
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
	admitKey := []comm.MsgKey{{From: schedule.Buddy(me, p), Tag: comm.TagJoinAdmit}}
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return comm.JoinAdmit{}, &RejoinTimeoutError{Ranks: []int{me}, Timeout: opts.RejoinTimeout}
		}
		wait := now.Add(opts.RecvTimeout)
		if deadline.Before(wait) {
			wait = deadline
		}
		_, _, payload, err := c.RecvAny(admitKey, wait)
		switch {
		case errors.Is(err, comm.ErrDeadline):
			announce()
		case comm.IsRecoverable(err):
			// The sponsor itself may be recovering; keep waiting.
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

// receiveState is the joiner's half of the state transfer: validate the
// certified manifests, which gate everything received from here on; receive
// the chunk streams, every chunk checked against its certified root before
// it is placed; restore the rank state — the sub-image, and the ward replicas
// this slot held — from the verified blobs. One bad manifest, chunk or
// section rejects the whole transfer, with a typed statexfer error where one
// applies; verified counts the chunks that had checked out by then.
func receiveState(c comm.Comm, opts Options, admit comm.JoinAdmit) (local *raster.Image, replicas map[int]*raster.Image, verified int, err error) {
	me, p, tel := c.Rank(), c.Size(), opts.Telemetry
	asms := map[int]*statexfer.Assembler{}
	var keys []comm.MsgKey
	for _, cm := range admit.Commits {
		m, err := statexfer.DecodeManifest(cm.Manifest)
		if err == nil {
			// A manifest for another joiner or epoch is stale by construction.
			err = statexfer.CheckIdentity(m, me, admit.Epoch)
		}
		if err == nil && m.Source != cm.Source {
			err = fmt.Errorf("claims source %d: %w", m.Source, statexfer.ErrStale)
		}
		if err == nil {
			asms[cm.Source], err = statexfer.NewAssembler(m)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("compositor: manifest from rank %d: %w", cm.Source, err)
		}
		for i := 0; i < m.NumChunks(); i++ {
			keys = append(keys, comm.MsgKey{From: cm.Source, Tag: comm.JoinXferTag(admit.Epoch, i)})
		}
	}
	if sponsor := schedule.Buddy(me, p); asms[sponsor] == nil {
		return nil, nil, 0, fmt.Errorf("compositor: admit carries no commitment from sponsor %d: %w", sponsor, statexfer.ErrStale)
	}

	for len(keys) > 0 {
		from, tag, payload, err := c.RecvAny(keys, comm.Deadline(opts.RecvTimeout))
		if err != nil {
			return nil, nil, verified, fmt.Errorf("compositor: join transfer from the mesh stalled: %w", err)
		}
		fresh, err := asms[from].AddFrame(payload)
		bufpool.Put(payload)
		if err != nil {
			tel.Add(me, telemetry.CtrRejoinRejectedChunks, 1)
			return nil, nil, verified, fmt.Errorf("compositor: join chunk from rank %d: %w", from, err)
		}
		if fresh {
			verified++
			tel.Add(me, telemetry.CtrRejoinVerifiedChunks, 1)
		}
		keys = slices.DeleteFunc(keys, func(k comm.MsgKey) bool { return k.From == from && k.Tag == tag })
	}

	replicas = map[int]*raster.Image{}
	for _, cm := range admit.Commits {
		blob, err := asms[cm.Source].Bytes()
		var secs []statexfer.Section
		if err == nil {
			secs, err = statexfer.DecodeSections(blob)
		}
		for _, sec := range secs {
			ward, werr := strconv.Atoi(strings.TrimPrefix(sec.Name, secWardPrefix))
			isWard := strings.HasPrefix(sec.Name, secWardPrefix) && werr == nil && ward >= 0 && ward < p
			if sec.Name != secSubimage && !isWard {
				continue
			}
			var img *raster.Image
			if img, err = decodeReplica(sec.Data, codec.Raw{}, -1, -1); err != nil {
				break
			}
			if isWard {
				replicas[ward] = img
			} else {
				local = img
			}
		}
		if err != nil {
			return nil, nil, verified, fmt.Errorf("compositor: snapshot from rank %d: %w", cm.Source, err)
		}
	}
	if local == nil {
		return nil, nil, verified, fmt.Errorf("compositor: join transfer restored no sub-image: %w", statexfer.ErrIncomplete)
	}
	return local, replicas, verified, nil
}

// scrubReplicas is the replica scrub exchange, run once after the buddy
// exchange when Options.ScrubReplicas is set. Every holder fingerprints its
// ward replicas, re-verifies them, and asks each ward for a live refresh of
// any replica that is missing or fails verification; a refresh that matches
// the recorded root replaces the corrupt copy (scrub_repaired), one that
// does not is counted scrub_failed and the corrupt copy is kept (the
// compose-partial machinery still prefers a suspect replica to none).
// Communication failures abort epoch 0 exactly like the buddy exchange.
func (rx *rexec) scrubReplicas() (bool, error) {
	p := rx.c.Size()
	if p <= 1 {
		return false, nil
	}
	defer rx.tel.End(rx.tel.Begin(rx.me, telemetry.PhaseScrub, telemetry.CatCompute, telemetry.StepNone))
	rx.scrub = statexfer.NewScrubber(rejoinChunkSize)
	for w, img := range rx.replicas {
		rx.scrub.Track(scrubKey(w), img.Pix)
	}
	if hook := rx.opts.hookReplicas; hook != nil {
		hook(rx.me, rx.replicas) // test seam: corrupt after the roots are recorded
	}
	// fault rules on a failed send to or receive from peer: a failure of the
	// peer aborts epoch 0 and the exchange carries on, anything else ends it.
	aborted := false
	fault := func(err error, what string, peer int) error {
		if !comm.IsRecoverable(err) {
			return fmt.Errorf("compositor: scrub %s rank %d: %w", what, peer, err)
		}
		aborted = rx.abort()
		return nil
	}

	// Request a refresh from each ward whose replica is missing or fails
	// re-verification; report the clean ones.
	var flagged []int
	for _, w := range schedule.Wards(rx.me, p) {
		req := byte(0)
		if img := rx.replicas[w]; img != nil && rx.scrub.Verify(scrubKey(w), img.Pix) {
			rx.tel.Add(rx.me, telemetry.CtrScrubOK, 1)
		} else {
			req = 1
			flagged = append(flagged, w)
		}
		if err := rx.c.Send(w, tagScrubReq, []byte{req}); err != nil {
			if err = fault(err, "request to", w); err != nil {
				return false, err
			}
		}
	}

	// Serve the one request this rank receives (from its buddy — the unique
	// rank warding this rank's replica).
	buddy := schedule.Buddy(rx.me, p)
	_, _, payload, err := rx.c.RecvAny([]comm.MsgKey{{From: buddy, Tag: tagScrubReq}}, comm.Deadline(rx.opts.RecvTimeout))
	want := err == nil && len(payload) == 1 && payload[0] == 1
	bufpool.Put(payload)
	if err != nil {
		err = fault(err, "request from", buddy)
	} else if want {
		if err = rx.c.Send(buddy, tagScrubRep, encodeReplica(rx.local, codec.Raw{})); err != nil {
			err = fault(err, "refresh to", buddy)
		}
	}
	if err != nil {
		return false, err
	}

	// Collect the refreshes for the flagged wards and verify each against
	// the root recorded at exchange time.
	for _, w := range flagged {
		_, _, payload, err := rx.c.RecvAny([]comm.MsgKey{{From: w, Tag: tagScrubRep}}, comm.Deadline(rx.opts.RecvTimeout))
		if err != nil {
			if err = fault(err, "refresh from", w); err != nil {
				return false, err
			}
			continue
		}
		img, derr := decodeReplica(payload, codec.Raw{}, rx.local.W, rx.local.H)
		bufpool.Put(payload)
		switch key := scrubKey(w); {
		case derr == nil && !rx.scrub.Tracked(key):
			// No fingerprint — the replica never arrived in the exchange.
			// Adopt the live copy and fingerprint it now.
			rx.replicas[w] = img
			rx.scrub.Track(key, img.Pix)
			rx.tel.Add(rx.me, telemetry.CtrScrubRepaired, 1)
		case derr == nil && rx.scrub.Verify(key, img.Pix):
			// The live copy matches the fingerprint recorded at exchange
			// time: the held replica rotted, the refresh repairs it.
			rx.replicas[w] = img
			rx.tel.Add(rx.me, telemetry.CtrScrubRepaired, 1)
		default:
			// The refresh does not decode, or the live copy disagrees with
			// the recorded root — the exchange itself was corrupted: nothing
			// trustworthy to restore from.
			rx.tel.Add(rx.me, telemetry.CtrScrubFailed, 1)
		}
	}
	return aborted, nil
}
