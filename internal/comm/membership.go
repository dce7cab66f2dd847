// Membership, failure notices and the dead-set agreement protocol of the
// recovery path. A composition that can survive rank death runs in epochs:
// epoch 0 is the original schedule, and every failure-triggered retry bumps
// the epoch. All recovery traffic is tagged with the epoch, so a retried
// epoch never consumes a stale message from an aborted one — the stale
// traffic simply dies unread under its old tags.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"rtcomp/internal/wire"
)

// Reserved negative tag bases for the recovery protocol, far below the
// collectives' range (the collective bases start at -1 and move by 64 per
// call, the recovery bases sit at -2^40 and beyond).
const (
	tagNoticeBase = -(1 << 40) // fail notices: tagNoticeBase - epoch
	tagAgreeBase  = -(1 << 41) // agreement rounds: tagAgreeBase - 2*epoch - round
)

// NoticeTag is the reserved tag failure notices carry in the given epoch.
func NoticeTag(epoch int) int { return tagNoticeBase - epoch }

func agreeTag(epoch, round int) int { return tagAgreeBase - 2*epoch - round }

// ErrEvicted is returned by Agree when the surviving ranks have condemned
// this rank as dead — a false suspicion under too-tight deadlines. The
// evicted rank must stop participating: the survivors have already agreed
// to recover without it, and a survivor will rebuild its layer.
var ErrEvicted = errors.New("comm: this rank was evicted by the membership agreement")

// Membership tracks one rank's view of which ranks are alive, and the
// current recovery epoch. All live ranks advance it in lockstep: an epoch
// attempt, then one Agree call, then Advance with the agreed dead set.
type Membership struct {
	size  int
	epoch int
	dead  []bool
}

// NewMembership returns epoch-0 membership with all ranks alive.
func NewMembership(size int) *Membership {
	return &Membership{size: size, dead: make([]bool, size)}
}

// Size returns the total rank count, dead or alive.
func (m *Membership) Size() int { return m.size }

// Epoch returns the current recovery epoch (0 = the original attempt).
func (m *Membership) Epoch() int { return m.epoch }

// Alive reports whether rank r is believed alive.
func (m *Membership) Alive(r int) bool { return r >= 0 && r < m.size && !m.dead[r] }

// NumDead counts the ranks declared dead so far.
func (m *Membership) NumDead() int {
	n := 0
	for _, d := range m.dead {
		if d {
			n++
		}
	}
	return n
}

// Dead returns the declared-dead ranks in ascending order.
func (m *Membership) Dead() []int {
	var out []int
	for r, d := range m.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// Advance declares the given ranks dead and enters the next epoch.
func (m *Membership) Advance(newDead []int) {
	for _, r := range newDead {
		if r >= 0 && r < m.size {
			m.dead[r] = true
		}
	}
	m.epoch++
}

// Revive returns the given ranks to the live set and enters the next epoch
// — the join counterpart of Advance, run by every survivor in lockstep right
// after the Advance of an agreement that certified the joiner's offer. The
// epoch bump gives the joiner the strictly-higher epoch its admission
// promised, and makes any traffic from before the revive stale.
func (m *Membership) Revive(ranks []int) {
	for _, r := range ranks {
		if r >= 0 && r < m.size {
			m.dead[r] = false
		}
	}
	m.epoch++
}

// Resume constructs membership at an arbitrary epoch with the given dead
// set — a joiner's view, taken verbatim from the ADMIT that the agreement
// round certified.
func Resume(size, epoch int, dead []int) *Membership {
	m := &Membership{size: size, epoch: epoch, dead: make([]bool, size)}
	for _, r := range dead {
		if r >= 0 && r < size {
			m.dead[r] = true
		}
	}
	return m
}

// NoticeKeys returns the receive keys for this epoch's failure notices
// from every live peer. A recovery-mode receive folds these into its key
// set so a peer's abort wakes it immediately instead of at its deadline.
func (m *Membership) NoticeKeys(self int) []MsgKey {
	var keys []MsgKey
	for r := 0; r < m.size; r++ {
		if r != self && !m.dead[r] {
			keys = append(keys, MsgKey{From: r, Tag: NoticeTag(m.epoch)})
		}
	}
	return keys
}

// BroadcastFailure sends a best-effort, empty FAILED notice to every live
// peer on this epoch's reserved tag: a wake-up for a peer blocked on this
// rank, which would otherwise wait out its deadline. What the notice means
// the agreement decides, so it carries nothing. Send errors are ignored — a
// peer that cannot be reached is itself a candidate for the dead set, which
// the following Agree call will establish. Each rank must broadcast at most
// once per epoch (tag uniqueness).
func BroadcastFailure(c Comm, m *Membership) {
	me := c.Rank()
	for r := 0; r < m.size; r++ {
		if r != me && !m.dead[r] {
			_ = c.Send(r, NoticeTag(m.epoch), nil)
		}
	}
}

// The round-0 votes of Agree. voteCompleted is also the empty rank set an
// older build sends there, so its round 0 reads as "completed"; an older
// build reads voteAborted as a garbled set, which it ignores.
const (
	voteCompleted = 0x00
	voteAborted   = 0x01
)

// Agree is the per-epoch membership agreement and the epoch's commit — run
// by every live rank after its epoch attempt, whether the attempt completed
// or aborted. It returns the agreed new dead set, the certified join offers,
// and commit: true only when no rank voted aborted and nobody died, all
// three identically on every survivor.
//
// Two timeout-bounded rounds over the believed-live set. Round 0: every
// rank sends its vote (voteCompleted, or voteAborted when its attempt
// aborted), followed by its offers — the JOIN-HELLOs it drained — when it
// has any, to every live peer and collects theirs; any other vote, or an
// offer list that does not decode, counts as an abort and still proves its
// sender alive. A peer not heard within the deadline is suspected —
// detection is by silence, because a dead rank's receives surface locally
// only as deadlines without rank attribution. Round 1: every rank sends its
// suspect set, followed by the union of the offers it heard when that is
// not empty, to every live peer (suspects included, so a falsely-suspected
// rank learns its fate) and unions the sets and offers it collects from
// non-suspects, waiting twice the timeout: a peer whose vote reached a rank
// just before that rank died waits its whole round 0 for a vote that never
// comes, while the peers that learned of the death at once may enter round
// 1 only just after it entered round 0 — with equal timeouts its round-1
// message would race their deadline. The union of suspects, of ranks
// everyone either failed to hear or was told about, is the agreed new dead
// set; the union of offers, the higher nonce winning a slot, is the
// certified one. If this rank appears in a received set it returns
// ErrEvicted. A vote a rank did not hear is a suspect it passes on, and an
// offer it heard is one it passes on, so the commit and the offers are
// exactly as consistent as the dead set.
//
// The timeout must comfortably exceed the composition's receive deadline:
// a peer may enter Agree up to one receive deadline later than the first
// aborter (it was still blocked on the dead rank when the notice raced
// past it).
func Agree(c Comm, m *Membership, aborted bool, offers []JoinHello, timeout time.Duration) (
	dead []int, certified []JoinHello, commit bool, err error) {
	me := c.Rank()
	suspect := map[int]bool{}
	lost := func(r int) { suspect[r] = true }
	union := map[int]uint64{}
	mergeOffers(union, offers)
	vote := byte(voteCompleted)
	if aborted {
		vote = voteAborted
	}
	commit = !aborted
	// Best-effort sends even to fresh suspects (see round 1 above), who are
	// told but not awaited; a send that names a failed peer confirms the
	// suspicion.
	if err = m.round(c, agreeTag(m.epoch, 0), appendOffers([]byte{vote}, unionOffers(union)), timeout, suspect, lost,
		func(_ int, data []byte) error {
			r := wire.NewReader(data)
			theirVote := r.Int(voteAborted)
			theirs, derr := readOfferTail(&r)
			commit = commit && derr == nil && theirVote == voteCompleted
			mergeOffers(union, theirs)
			return nil
		}); err != nil {
		return nil, nil, false, fmt.Errorf("comm: agree round 0 %w", err)
	}
	err = m.round(c, agreeTag(m.epoch, 1), EncodeSuspectSet(sortedRanks(suspect), unionOffers(union)), 2*timeout, suspect, lost,
		func(_ int, data []byte) error {
			// A garbled set still proves the sender alive; its content is
			// ignored.
			theirs, theirOffers, _ := DecodeSuspectSet(data)
			for _, r := range theirs {
				if r == me {
					return ErrEvicted
				}
				if r < m.size && !m.dead[r] {
					suspect[r] = true
				}
			}
			mergeOffers(union, theirOffers)
			return nil
		})
	if err == ErrEvicted {
		return nil, nil, false, err
	} else if err != nil {
		return nil, nil, false, fmt.Errorf("comm: agree round 1 %w", err)
	}
	dead = sortedRanks(suspect)
	return dead, unionOffers(union), commit && len(dead) == 0, nil
}

// round is one round of Agree: send payload under tag to every live peer,
// then collect one reply from each it reached — and that skip does not name
// — until the timeout, counted once the sends are out (<= 0 waits forever). lost is told of every peer that
// failed: one a send could not reach, one the fabric reports dead, and each
// one still silent when the time is up. heard takes each reply; peers it
// adds to skip are no longer awaited, and an error from it ends the round as
// it is. Any other error is a fault of the local endpoint.
func (m *Membership) round(c Comm, tag int, payload []byte, timeout time.Duration, skip map[int]bool,
	lost func(rank int), heard func(from int, data []byte) error) error {
	var keys []MsgKey
	for r := 0; r < m.size; r++ {
		if r == c.Rank() || m.dead[r] {
			continue
		}
		if err := c.Send(r, tag, payload); err != nil {
			if !IsRecoverable(err) {
				return fmt.Errorf("send: %w", err)
			}
			lost(r)
		} else if !skip[r] {
			keys = append(keys, MsgKey{From: r, Tag: tag})
		}
	}
	deadline := Deadline(timeout)
	for len(keys) > 0 {
		from, _, data, err := c.RecvAny(keys, deadline)
		var perr *PeerError
		switch {
		case err == nil:
			if err := heard(from, data); err != nil {
				return err
			}
			keys = slices.DeleteFunc(keys, func(k MsgKey) bool { return k.From == from || skip[k.From] })
		case errors.As(err, &perr):
			lost(perr.Rank)
			keys = dropKeysFrom(keys, perr.Rank)
		case errors.Is(err, ErrDeadline):
			for _, k := range keys {
				lost(k.From)
			}
			keys = nil
		default:
			return fmt.Errorf("recv: %w", err)
		}
	}
	return nil
}

func dropKeysFrom(keys []MsgKey, rank int) []MsgKey {
	return slices.DeleteFunc(keys, func(k MsgKey) bool { return k.From == rank })
}

func sortedRanks(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// EncodeRankSet serialises a rank list as uvarint count + uvarint ranks.
func EncodeRankSet(ranks []int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(ranks)))
	for _, r := range ranks {
		out = binary.AppendUvarint(out, uint64(r))
	}
	return out
}

// maxRank bounds every rank a message may name: far above any real mesh, so
// that a decoded rank is always a sane int.
const maxRank = 1 << 20

// EncodeSuspectSet serialises Agree's round-1 message: the suspects as a
// rank set, followed by the offers only when there are any — so without
// offers it is the bare rank set an older build sends.
func EncodeSuspectSet(suspects []int, offers []JoinHello) []byte {
	return appendOffers(EncodeRankSet(suspects), offers)
}

// DecodeSuspectSet inverts EncodeSuspectSet.
func DecodeSuspectSet(payload []byte) ([]int, []JoinHello, error) {
	r := wire.NewReader(payload)
	suspects := readRankSet(&r)
	offers, err := readOfferTail(&r)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: suspect set: %w", err)
	}
	return suspects, offers, nil
}

// DecodeRankSet inverts EncodeRankSet.
func DecodeRankSet(payload []byte) ([]int, error) {
	r := wire.NewReader(payload)
	out := readRankSet(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("comm: rank set: %w", err)
	}
	return out, nil
}

// readRankSet reads a rank set off a longer message (a JOIN-ADMIT carries
// one mid-frame, a suspect set one before its offers). The count is bounded by the bytes left, a rank taking at
// least one, so nothing is allocated on a count's say-so.
func readRankSet(r *wire.Reader) []int {
	var out []int
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, r.Int(maxRank))
	}
	return out
}
