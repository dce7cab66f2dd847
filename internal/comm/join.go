// The JOIN path of the membership protocol — the symmetric counterpart of
// the FAILED path in membership.go. A standby rank (a spare, or a restarted
// rank) renders its own layer, then broadcasts a JOIN-HELLO on a reserved
// epoch-independent tag; the hellos sit in the survivors' mailboxes until
// their next agreement. Each survivor drains the hellos already there
// before it enters Agree, whose votes carry them as offers, so every
// survivor certifies the same (rank, nonce) pairs with the same dead set.
// The lowest live rank then sends an ADMIT carrying the nonce, the strictly
// higher join epoch and the dead set, and every survivor revives the slot
// in the same step. No rank state travels.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
)

// maxEpoch bounds the epoch a join message may carry.
const maxEpoch = 1 << 32

// JoinHello announces a standby rank asking to take over a (dead) rank slot;
// Agree certifies the same pairs as offers. The nonce distinguishes
// incarnations: a second spare for the same slot, or a retry, carries a
// fresh nonce, and an ADMIT echoes the nonce so a spare never acts on an
// admission meant for a predecessor.
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
	out := readOffers(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("comm: join offers: %w", err)
	}
	return out, nil
}

// readOffers reads an offer list off a longer message, bounded like
// readRankSet's.
func readOffers(r *wire.Reader) []JoinHello {
	var out []JoinHello
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, JoinHello{Rank: r.Int(maxRank), Nonce: r.Uint64()})
	}
	return out
}

// appendOffers ends a vote or a suspect set with its offers — with nothing
// when there are none, so a message without offers is the bare vote or rank
// set an older build sends and reads.
func appendOffers(buf []byte, offers []JoinHello) []byte {
	if len(offers) == 0 {
		return buf
	}
	return append(buf, EncodeJoinOffers(offers)...)
}

// errNoOffers refuses an offer list spelled out empty: appendOffers writes
// none, so the bytes could not have come from it.
var errNoOffers = errors.New("comm: an empty offer list is sent as no list")

// readOfferTail reads what appendOffers appended and ends the message.
func readOfferTail(r *wire.Reader) ([]JoinHello, error) {
	if r.Err() != nil || r.Len() == 0 {
		return nil, r.Err()
	}
	offers := readOffers(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, errNoOffers
	}
	return offers, nil
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
