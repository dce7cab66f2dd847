// The JOIN path of the membership protocol — the symmetric counterpart of
// the FAILED path in membership.go. A standby rank (a spare, or a restarted
// rank) renders its own layer, then broadcasts a
// JOIN-HELLO on a reserved epoch-independent tag; the hellos sit in the
// survivors' mailboxes until the next membership change, when every survivor
// drains them and runs a two-round join agreement (AgreeJoin) over the
// (rank, nonce) pairs, so every survivor certifies the same joiners. The
// lowest live rank then sends an ADMIT carrying the nonce, the strictly
// higher join epoch and the dead set, and an empty JOIN-DONE from the joiner
// lets every survivor Revive it in lockstep. No rank state travels.
package comm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"rtcomp/internal/wire"
)

// Reserved negative tag bases of the join protocol, each in its own 2^40+
// band below the recovery bases (notice at -2^40, agree at -2^41).
const (
	// TagJoinHello carries a spare's JOIN-HELLO. It is epoch-independent:
	// the spare does not know the mesh epoch, and the hello may sit in a
	// mailbox across several epochs before a survivor drains it.
	TagJoinHello = -(1 << 42)
	// TagJoinAdmit carries the sponsor's ADMIT to the joiner — also
	// epoch-independent, because the joiner learns the epoch from it.
	TagJoinAdmit = -(1 << 43)

	tagJoinAgreeBase = -(1 << 44) // join agreement rounds: base - 2*epoch - round
	tagJoinDoneBase  = -(1 << 46) // JOIN-DONE: base - epoch
)

func joinAgreeTag(epoch, round int) int { return tagJoinAgreeBase - 2*epoch - round }

// maxEpoch bounds the epoch a join message may carry.
const maxEpoch = 1 << 32

// JoinDoneTag scopes the joiner's JOIN-DONE to its join epoch. The message
// is empty: a non-empty payload on this tag is not a JOIN-DONE.
func JoinDoneTag(epoch int) int { return tagJoinDoneBase - epoch }

// JoinHello announces a standby rank asking to take over a (dead) rank slot;
// the join agreement certifies the same pairs as offers. The nonce
// distinguishes incarnations: a second spare for the same slot, or a retry,
// carries a fresh nonce, and an ADMIT echoes the nonce so a spare never acts
// on an admission meant for a predecessor.
type JoinHello struct {
	Rank  int
	Nonce uint64
}

// Encode serialises the hello: uvarint rank, 8-byte big-endian nonce.
func (h JoinHello) Encode() []byte {
	return binary.BigEndian.AppendUint64(binary.AppendUvarint(nil, uint64(h.Rank)), h.Nonce)
}

// DecodeJoinHello inverts Encode.
func DecodeJoinHello(payload []byte) (JoinHello, error) {
	r := wire.NewReader(payload)
	h := JoinHello{Rank: r.Int(maxRank), Nonce: r.Uint64()}
	if err := r.Done(); err != nil {
		return JoinHello{}, fmt.Errorf("comm: join hello: %w", err)
	}
	return h, nil
}

// EncodeJoinOffers serialises a survivor's offers — the (rank, nonce) pairs
// of the hellos it drained: uvarint count, then per offer uvarint rank,
// 8-byte big-endian nonce.
func EncodeJoinOffers(offers []JoinHello) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(offers)))
	for _, o := range offers {
		buf = binary.AppendUvarint(buf, uint64(o.Rank))
		buf = binary.BigEndian.AppendUint64(buf, o.Nonce)
	}
	return buf
}

// DecodeJoinOffers inverts EncodeJoinOffers.
func DecodeJoinOffers(payload []byte) ([]JoinHello, error) {
	r := wire.NewReader(payload)
	var out []JoinHello
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, JoinHello{Rank: r.Int(maxRank), Nonce: r.Uint64()})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("comm: join offers: %w", err)
	}
	return out, nil
}

// mergeOffers folds src into dst (joiner rank → nonce). The higher nonce
// wins a joiner conflict (a fresh incarnation supersedes a stale hello): the
// rule is commutative, associative and idempotent, so every survivor that
// hears the same message set converges on the same union regardless of
// arrival order.
func mergeOffers(dst map[int]uint64, src []JoinHello) {
	for _, o := range src {
		if n, ok := dst[o.Rank]; !ok || o.Nonce > n {
			dst[o.Rank] = o.Nonce
		}
	}
}

// AgreeJoin is the two-round join agreement every survivor runs after a
// membership change when rejoin is enabled — whether or not it drained a
// hello itself, because a peer may have. Round 0 exchanges each rank's local
// offers; round 1 exchanges the unions, so a hello observed by any one
// survivor reaches all of them. Silence or a peer failure in either round
// aborts the join for everyone (the abort is propagated in the round-1
// message), returning nil — admission must be unanimous, and an aborted join
// is retried at a later epoch while the ordinary failure machinery deals
// with whatever caused the silence. The returned offers are sorted by rank
// and identical on every survivor that returns non-nil.
func AgreeJoin(c Comm, m *Membership, mine []JoinHello, timeout time.Duration) ([]JoinHello, error) {
	union := map[int]uint64{}
	mergeOffers(union, mine)
	aborted := false
	for round := 0; round < 2; round++ {
		payload := []byte{0}
		if aborted {
			payload[0] = 1
		}
		payload = append(payload, EncodeJoinOffers(unionOffers(union))...)
		// Round 1 waits twice as long, for the reason Agree's does: a
		// silence there aborts the join on this rank alone.
		wait := timeout
		if round == 1 {
			wait = 2 * timeout
		}
		err := m.round(c, joinAgreeTag(m.epoch, round), payload, wait, nil,
			func(int) { aborted = true },
			func(_ int, data []byte) error {
				if len(data) > 0 && data[0] == 0 {
					if theirs, derr := DecodeJoinOffers(data[1:]); derr == nil {
						mergeOffers(union, theirs)
						return nil
					}
				}
				// The peer aborted, or its offer set is too garbled to certify.
				aborted = true
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("comm: join agree round %d %w", round, err)
		}
	}
	if aborted {
		return nil, nil
	}
	return unionOffers(union), nil
}

func unionOffers(union map[int]uint64) []JoinHello {
	out := make([]JoinHello, 0, len(union))
	for r, n := range union {
		out = append(out, JoinHello{Rank: r, Nonce: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// JoinAdmit is the sponsor's admission message to the joiner — the sponsor
// being the lowest live rank: the nonce it echoes, the join epoch (the epoch
// the survivors will Revive at, strictly higher than any the joiner has
// seen) and the ranks still dead after the revive. It carries no state: the
// joiner rendered its layers already.
type JoinAdmit struct {
	Nonce uint64
	Epoch int
	Dead  []int
}

// Encode serialises the admit: 8-byte big-endian nonce, uvarint epoch, the
// dead ranks as a rank set.
func (a JoinAdmit) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Nonce)
	buf = binary.AppendUvarint(buf, uint64(a.Epoch))
	return append(buf, EncodeRankSet(a.Dead)...)
}

// DecodeJoinAdmit inverts Encode.
func DecodeJoinAdmit(payload []byte) (JoinAdmit, error) {
	r := wire.NewReader(payload)
	a := JoinAdmit{Nonce: r.Uint64(), Epoch: r.Int(maxEpoch), Dead: readRankSet(&r)}
	if err := r.Done(); err != nil {
		return JoinAdmit{}, fmt.Errorf("comm: join admit: %w", err)
	}
	return a, nil
}
