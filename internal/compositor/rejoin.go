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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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

// encodeRawImage frames an image for a join snapshot or a scrub refresh:
// uvarint width, uvarint height, raw pixels. No codec — the merkle tree
// provides integrity and the transfer is off the frame's critical path.
func encodeRawImage(img *raster.Image) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(img.Pix))
	buf = binary.AppendUvarint(buf, uint64(img.W))
	buf = binary.AppendUvarint(buf, uint64(img.H))
	return append(buf, img.Pix...)
}

// decodeRawImage inverts encodeRawImage, copying the pixels out.
func decodeRawImage(payload []byte) (*raster.Image, error) {
	w, off := binary.Uvarint(payload)
	if off <= 0 || w > 1<<20 {
		return nil, fmt.Errorf("compositor: corrupt raw image width")
	}
	rest := payload[off:]
	h, off := binary.Uvarint(rest)
	if off <= 0 || h > 1<<20 {
		return nil, fmt.Errorf("compositor: corrupt raw image height")
	}
	rest = rest[off:]
	img := raster.New(int(w), int(h))
	if len(rest) != len(img.Pix) {
		return nil, fmt.Errorf("compositor: raw image has %d pixel bytes, want %d", len(rest), len(img.Pix))
	}
	copy(img.Pix, rest)
	return img, nil
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

// rejoinOnce runs one join round on a survivor: drain hellos, certify the
// offers, admit at most one joiner (lowest certified rank with a verifiable
// buddy commitment), stream this rank's contribution, wait for JOIN-DONE and
// revive. It returns the number of slots revived (0 or 1); 0 with a nil
// error means no admissible spare this round — the caller degrades.
//
// At most one slot is revived per membership change: the freshly revived
// member re-enters the composition immediately, so a second agreement round
// behind its back would stall against its silence. Additional dead slots get
// their chance at the next membership change (or the next frame).
func (rx *rexec) rejoinOnce(deadline time.Time) (int, error) {
	endJoin := rx.tel.Span(rx.me, telemetry.PhaseJoin, telemetry.CatNetwork, telemetry.StepNone)
	defer endJoin()
	p := rx.c.Size()
	deadSet := rx.mem.Dead()

	// Drain pending JOIN-HELLOs from the dead slots. The first wait is the
	// rejoin window itself (a spare may not have announced yet); once any
	// hello has landed, short coalescing polls pick up stragglers so every
	// survivor converges on the same set quickly.
	hellos := map[int]uint64{}
	keys := make([]comm.MsgKey, 0, len(deadSet))
	for _, d := range deadSet {
		keys = append(keys, comm.MsgKey{From: d, Tag: comm.TagJoinHello})
	}
	for len(keys) > 0 {
		timeout := noticePollTimeout
		if len(hellos) == 0 {
			if timeout = time.Until(deadline); timeout < noticePollTimeout {
				timeout = noticePollTimeout
			}
		}
		from, _, payload, err := rx.c.RecvAnyTimeout(keys, timeout)
		if err != nil {
			var perr *comm.PeerError
			if errors.As(err, &perr) {
				keys = dropJoinKeys(keys, perr.Rank)
				continue
			}
			if errors.Is(err, comm.ErrDeadline) {
				break
			}
			return 0, fmt.Errorf("compositor: draining join hellos: %w", err)
		}
		h, derr := comm.DecodeJoinHello(payload)
		bufpool.Put(payload)
		if derr != nil || h.Rank != from {
			continue // garbage on the hello tag proves nothing
		}
		if h.Nonce >= hellos[from] {
			hellos[from] = h.Nonce // latest incarnation wins; re-sent hellos coalesce
		}
	}

	// Build this rank's offers: for each announced joiner, snapshot the
	// state this rank can contribute, commit its merkle manifest.
	joinEpoch := rx.mem.Epoch() + 1
	var offers []comm.JoinOffer
	snaps := map[int]*statexfer.Snapshot{}
	for r, nonce := range hellos {
		var secs []statexfer.Section
		if schedule.Buddy(r, p) == rx.me {
			if img := rx.replicas[r]; img != nil {
				secs = append(secs, statexfer.Section{Name: secSubimage, Data: encodeRawImage(img)})
			}
		}
		if schedule.Buddy(rx.me, p) == r {
			// The joiner wards this rank: restore its replica of this rank's
			// sub-image from the live copy.
			secs = append(secs, statexfer.Section{Name: secWardPrefix + strconv.Itoa(rx.me), Data: encodeRawImage(rx.local)})
		}
		offer := comm.JoinOffer{Rank: r, Nonce: nonce}
		if len(secs) > 0 {
			snap, err := statexfer.Build(r, rx.me, joinEpoch, secs, rejoinChunkSize)
			if err != nil {
				return 0, err
			}
			snaps[r] = snap
			offer.Commits = []comm.JoinCommit{{Source: rx.me, Manifest: snap.Manifest.Encode()}}
		}
		offers = append(offers, offer)
	}

	// Certify the union. The timeout is padded by the remaining rejoin
	// window: a peer that heard its hello instantly may reach the agreement
	// up to a full window earlier than one that waited it out.
	agreeTimeout := rx.agreeTO
	if pad := time.Until(deadline); pad > 0 {
		agreeTimeout += pad
	}
	certified, err := comm.AgreeJoin(rx.c, rx.mem, offers, agreeTimeout)
	if err != nil {
		return 0, err
	}
	if certified == nil {
		return 0, nil // aborted: a survivor was silent; the failure machinery decides
	}

	// Deterministically pick the joiner: the lowest certified dead rank
	// whose buddy committed a verifiable subimage snapshot. Every survivor
	// sees the identical certified set, so every survivor picks the same.
	joiner := -1
	var admit comm.JoinAdmit
	for _, o := range certified {
		if o.Rank < 0 || o.Rank >= p || rx.mem.Alive(o.Rank) {
			continue
		}
		var valid []comm.JoinCommit
		buddyCommitted := false
		for _, cm := range o.Commits {
			m, derr := statexfer.DecodeManifest(cm.Manifest)
			if derr != nil || m.Source != cm.Source || statexfer.CheckIdentity(m, o.Rank, joinEpoch) != nil {
				continue // stale or garbled commitment: never certify it to the joiner
			}
			valid = append(valid, cm)
			if cm.Source == schedule.Buddy(o.Rank, p) {
				buddyCommitted = true
			}
		}
		if !buddyCommitted {
			continue // nobody can restore the sub-image; the slot stays dead
		}
		var stillDead []int
		for _, d := range deadSet {
			if d != o.Rank {
				stillDead = append(stillDead, d)
			}
		}
		joiner = o.Rank
		admit = comm.JoinAdmit{Nonce: o.Nonce, Epoch: joinEpoch, Dead: stillDead, Commits: valid}
		break
	}
	if joiner < 0 {
		return 0, nil
	}

	// The buddy sponsors: it sends the ADMIT. Every certified contributor
	// streams its chunks. All sends are best-effort — if the spare died, the
	// JOIN-DONE wait below times out identically on every survivor.
	if schedule.Buddy(joiner, p) == rx.me {
		_ = rx.c.Send(joiner, comm.TagJoinAdmit, admit.Encode())
	}
	if snap := snaps[joiner]; snap != nil && commitsHaveSource(admit.Commits, rx.me) {
		endXfer := rx.tel.Span(rx.me, telemetry.PhaseXfer, telemetry.CatNetwork, telemetry.StepNone)
		for i := 0; i < snap.NumChunks(); i++ {
			_ = rx.c.Send(joiner, comm.JoinXferTag(joinEpoch, i), snap.ChunkFrame(i))
		}
		endXfer()
	}

	data, err := rx.c.RecvTimeout(joiner, comm.JoinDoneTag(joinEpoch), agreeTimeout)
	if err != nil {
		if comm.IsRecoverable(err) {
			rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
				fmt.Sprintf("join of rank %d failed: no JOIN-DONE", joiner))
			return 0, nil
		}
		return 0, fmt.Errorf("compositor: waiting for JOIN-DONE from rank %d: %w", joiner, err)
	}
	ok, _, derr := comm.DecodeJoinDone(data)
	bufpool.Put(data)
	if derr != nil || !ok {
		rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
			fmt.Sprintf("join of rank %d failed: transfer rejected", joiner))
		return 0, nil
	}
	rx.mem.Revive([]int{joiner})
	rx.rep.RejoinedRanks = append(rx.rep.RejoinedRanks, joiner)
	rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("rank %d rejoined at epoch %d", joiner, rx.mem.Epoch()))
	return 1, nil
}

func commitsHaveSource(commits []comm.JoinCommit, source int) bool {
	for _, c := range commits {
		if c.Source == source {
			return true
		}
	}
	return false
}

func dropJoinKeys(keys []comm.MsgKey, rank int) []comm.MsgKey {
	out := keys[:0]
	for _, k := range keys {
		if k.From != rank {
			out = append(out, k)
		}
	}
	return out
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
	me := c.Rank()
	tel := opts.Telemetry
	p := sched.P
	nonce := joinNonce.Add(1)
	hello := comm.JoinHello{Rank: me, Nonce: nonce}.Encode()
	deadline := time.Now().Add(opts.RejoinTimeout)
	broadcastHello := func() {
		for r := 0; r < p; r++ {
			if r != me {
				_ = c.Send(r, comm.TagJoinHello, hello)
			}
		}
	}
	broadcastHello()

	// Wait for the buddy's ADMIT, re-announcing every receive timeout so a
	// hello consumed by an aborted join round does not strand this spare.
	sponsor := schedule.Buddy(me, p)
	var admit comm.JoinAdmit
	endJoin := tel.Span(me, telemetry.PhaseJoin, telemetry.CatNetwork, telemetry.StepNone)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			endJoin()
			return nil, nil, &RejoinTimeoutError{Ranks: []int{me}, Timeout: opts.RejoinTimeout}
		}
		if remain > opts.RecvTimeout {
			remain = opts.RecvTimeout
		}
		payload, err := c.RecvTimeout(sponsor, comm.TagJoinAdmit, remain)
		if err != nil {
			if errors.Is(err, comm.ErrDeadline) {
				broadcastHello()
				continue
			}
			if comm.IsRecoverable(err) {
				continue // the sponsor itself may be recovering; keep waiting
			}
			endJoin()
			return nil, nil, fmt.Errorf("compositor: waiting for join admit: %w", err)
		}
		a, derr := comm.DecodeJoinAdmit(payload)
		bufpool.Put(payload)
		if derr != nil || a.Nonce != nonce {
			continue // garbled, or an admission meant for a predecessor
		}
		admit = a
		break
	}
	endJoin()

	// The certified manifests gate everything received from here on. A
	// manifest for another joiner or epoch is stale by construction.
	deadSlot := make([]bool, p)
	for _, d := range admit.Dead {
		if d >= 0 && d < p {
			deadSlot[d] = true
		}
	}
	sendDone := func(ok bool, verified int) {
		frame := comm.EncodeJoinDone(ok, verified)
		for r := 0; r < p; r++ {
			if r != me && !deadSlot[r] {
				_ = c.Send(r, comm.JoinDoneTag(admit.Epoch), frame)
			}
		}
	}
	asms := map[int]*statexfer.Assembler{}
	mans := map[int]statexfer.Manifest{}
	for _, cm := range admit.Commits {
		m, err := statexfer.DecodeManifest(cm.Manifest)
		if err != nil {
			sendDone(false, 0)
			return nil, nil, fmt.Errorf("compositor: manifest from rank %d: %w", cm.Source, err)
		}
		if err := statexfer.CheckIdentity(m, me, admit.Epoch); err != nil {
			sendDone(false, 0)
			return nil, nil, fmt.Errorf("compositor: manifest from rank %d: %w", cm.Source, err)
		}
		if m.Source != cm.Source {
			sendDone(false, 0)
			return nil, nil, fmt.Errorf("compositor: manifest from rank %d claims source %d: %w", cm.Source, m.Source, statexfer.ErrStale)
		}
		a, err := statexfer.NewAssembler(m)
		if err != nil {
			sendDone(false, 0)
			return nil, nil, fmt.Errorf("compositor: manifest from rank %d: %w", cm.Source, err)
		}
		asms[cm.Source] = a
		mans[cm.Source] = m
	}
	if _, ok := asms[sponsor]; !ok {
		sendDone(false, 0)
		return nil, nil, fmt.Errorf("compositor: admit carries no commitment from sponsor %d: %w", sponsor, statexfer.ErrStale)
	}

	// Receive and verify the chunk streams. Every chunk is checked against
	// the certified root before it is placed; one bad chunk rejects the
	// whole transfer with a typed error — the survivors learn via JOIN-DONE
	// and keep recovering without this spare.
	endXfer := tel.Span(me, telemetry.PhaseXfer, telemetry.CatNetwork, telemetry.StepNone)
	defer endXfer()
	verified := 0
	sources := make([]int, 0, len(asms))
	for s := range asms {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	for {
		var keys []comm.MsgKey
		for _, s := range sources {
			a := asms[s]
			for i := 0; i < mans[s].NumChunks(); i++ {
				if !a.Has(i) {
					keys = append(keys, comm.MsgKey{From: s, Tag: comm.JoinXferTag(admit.Epoch, i)})
				}
			}
		}
		if len(keys) == 0 {
			break
		}
		from, _, payload, err := c.RecvAnyTimeout(keys, opts.RecvTimeout)
		if err != nil {
			sendDone(false, verified)
			return nil, nil, fmt.Errorf("compositor: join transfer from the mesh stalled: %w", err)
		}
		fresh, err := asms[from].AddFrame(payload)
		bufpool.Put(payload)
		if err != nil {
			tel.Add(me, telemetry.CtrRejoinRejectedChunks, 1)
			sendDone(false, verified)
			return nil, nil, fmt.Errorf("compositor: join chunk from rank %d: %w", from, err)
		}
		if fresh {
			verified++
			tel.Add(me, telemetry.CtrRejoinVerifiedChunks, 1)
		}
	}

	// Restore the rank state from the verified blobs.
	var local *raster.Image
	replicas := map[int]*raster.Image{}
	for _, s := range sources {
		blob, err := asms[s].Bytes()
		if err != nil {
			sendDone(false, verified)
			return nil, nil, err
		}
		secs, err := statexfer.DecodeSections(blob)
		if err != nil {
			sendDone(false, verified)
			return nil, nil, fmt.Errorf("compositor: snapshot from rank %d: %w", s, err)
		}
		for _, sec := range secs {
			switch {
			case sec.Name == secSubimage:
				img, derr := decodeRawImage(sec.Data)
				if derr != nil {
					sendDone(false, verified)
					return nil, nil, derr
				}
				local = img
			case strings.HasPrefix(sec.Name, secWardPrefix):
				w, aerr := strconv.Atoi(sec.Name[len(secWardPrefix):])
				if aerr != nil || w < 0 || w >= p {
					continue
				}
				img, derr := decodeRawImage(sec.Data)
				if derr != nil {
					sendDone(false, verified)
					return nil, nil, derr
				}
				replicas[w] = img
			}
		}
	}
	if local == nil {
		sendDone(false, verified)
		return nil, nil, fmt.Errorf("compositor: join transfer restored no sub-image: %w", statexfer.ErrIncomplete)
	}
	sendDone(true, verified)
	tel.Add(me, telemetry.CtrRejoins, 1)
	tel.Flight(me, telemetry.FlightJoin, telemetry.StepNone, -1, -1,
		fmt.Sprintf("rejoined slot %d at epoch %d, %d chunks verified", me, admit.Epoch, verified))

	// Continue as a full member: the same epoch engine the survivors run,
	// resumed at the certified join epoch with the certified dead set.
	rep := &Report{Rank: me, Rejoined: true, RejoinEpochs: 1, RejoinedRanks: []int{me}}
	rx := newRexec(c, sched, local, opts, cdc, rep, comm.Resume(p, admit.Epoch, admit.Dead), replicas)
	defer rx.scr.release()
	if opts.ScrubReplicas {
		// Track the restored replicas so a later scrub-style verification
		// (and the next frame's exchange) can fingerprint them; the exchange
		// itself ran at epoch 0 and is not repeated mid-composition.
		rx.scrub = statexfer.NewScrubber(rejoinChunkSize)
		for w, img := range replicas {
			rx.scrub.Track(scrubKey(w), img.Pix)
		}
	}
	return rx.loop(false)
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
	end := rx.tel.Span(rx.me, telemetry.PhaseScrub, telemetry.CatCompute, telemetry.StepNone)
	defer end()
	rx.scrub = statexfer.NewScrubber(rejoinChunkSize)
	for w, img := range rx.replicas {
		rx.scrub.Track(scrubKey(w), img.Pix)
	}
	if hook := rx.opts.hookReplicas; hook != nil {
		hook(rx.me, rx.replicas) // test seam: corrupt after the roots are recorded
	}

	// Request a refresh from each ward whose replica is missing or fails
	// re-verification; report the clean ones.
	aborted := false
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
			if !comm.IsRecoverable(err) {
				return false, fmt.Errorf("compositor: scrub request to rank %d: %w", w, err)
			}
			aborted = rx.abort(suspectsOf(err, w))
		}
	}

	// Serve the one request this rank receives (from its buddy — the unique
	// rank warding this rank's replica).
	buddy := schedule.Buddy(rx.me, p)
	payload, err := rx.c.RecvTimeout(buddy, tagScrubReq, rx.opts.RecvTimeout)
	if err != nil {
		if !comm.IsRecoverable(err) {
			return false, fmt.Errorf("compositor: scrub request from rank %d: %w", buddy, err)
		}
		aborted = rx.abort(suspectsOf(err, buddy))
	} else {
		want := len(payload) == 1 && payload[0] == 1
		bufpool.Put(payload)
		if want {
			if serr := rx.c.Send(buddy, tagScrubRep, encodeRawImage(rx.local)); serr != nil {
				if !comm.IsRecoverable(serr) {
					return false, fmt.Errorf("compositor: scrub refresh to rank %d: %w", buddy, serr)
				}
				aborted = rx.abort(suspectsOf(serr, buddy))
			}
		}
	}

	// Collect the refreshes for the flagged wards and verify each against
	// the root recorded at exchange time.
	for _, w := range flagged {
		payload, err := rx.c.RecvTimeout(w, tagScrubRep, rx.opts.RecvTimeout)
		if err != nil {
			if !comm.IsRecoverable(err) {
				return false, fmt.Errorf("compositor: scrub refresh from rank %d: %w", w, err)
			}
			aborted = rx.abort(suspectsOf(err, w))
			continue
		}
		img, derr := decodeRawImage(payload)
		bufpool.Put(payload)
		if derr != nil {
			rx.tel.Add(rx.me, telemetry.CtrScrubFailed, 1)
			continue
		}
		switch {
		case rx.scrub.Tracked(scrubKey(w)) && rx.scrub.Verify(scrubKey(w), img.Pix):
			// The live copy matches the fingerprint recorded at exchange
			// time: the held replica rotted, the refresh repairs it.
			rx.replicas[w] = img
			rx.tel.Add(rx.me, telemetry.CtrScrubRepaired, 1)
		case !rx.scrub.Tracked(scrubKey(w)):
			// No fingerprint — the replica never arrived in the exchange.
			// Adopt the live copy and fingerprint it now.
			rx.replicas[w] = img
			rx.scrub.Track(scrubKey(w), img.Pix)
			rx.tel.Add(rx.me, telemetry.CtrScrubRepaired, 1)
		default:
			// The live copy disagrees with the recorded root: the exchange
			// itself was corrupted, nothing trustworthy to restore from.
			rx.tel.Add(rx.me, telemetry.CtrScrubFailed, 1)
		}
	}
	return aborted, nil
}
