// The JOIN path of the membership protocol — the symmetric counterpart of
// the FAILED path in membership.go. A standby rank (a spare, or a restarted
// rank) broadcasts a JOIN-HELLO on a reserved epoch-independent tag; the
// hellos sit in the survivors' mailboxes until the next membership change,
// when every survivor drains them and runs a two-round join agreement
// (AgreeJoin) that unions the offers — including the merkle manifests of the
// state snapshots the contributors can serve — so every survivor certifies
// the same commitment the joiner will verify its state transfer against.
// The joiner's buddy then sends an ADMIT carrying the certified manifests
// and the strictly-higher join epoch, the contributors stream their chunks,
// and a JOIN-DONE from the joiner lets every survivor Revive it in lockstep.
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
	tagJoinXferBase  = -(1 << 45) // chunk stream: base - epoch*2^20 - chunk index
	tagJoinDoneBase  = -(1 << 46) // JOIN-DONE: base - epoch
)

func joinAgreeTag(epoch, round int) int { return tagJoinAgreeBase - 2*epoch - round }

// maxEpoch bounds the epochs and chunk counts a join message may carry.
const maxEpoch = 1 << 32

// JoinXferTag scopes one snapshot chunk to a join epoch; the serving rank is
// the message's From, so (epoch, index) needs no source component.
func JoinXferTag(epoch, chunk int) int { return tagJoinXferBase - epoch<<20 - chunk }

// JoinDoneTag scopes the joiner's JOIN-DONE to its join epoch.
func JoinDoneTag(epoch int) int { return tagJoinDoneBase - epoch }

// JoinHello announces a standby rank asking to take over a (dead) rank slot.
// The nonce distinguishes incarnations: a second spare for the same slot, or
// a retry, carries a fresh nonce, and an ADMIT echoes the nonce so a spare
// never acts on an admission meant for a predecessor.
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

// JoinCommit is one contributor's commitment for a joiner: the serialized
// statexfer manifest of the snapshot it will stream. The bytes are opaque to
// the comm layer — the agreement only needs to replicate them faithfully so
// every survivor certifies the same roots.
type JoinCommit struct {
	Source   int
	Manifest []byte
}

// JoinOffer is one pending joiner as seen by a survivor: the hello it
// drained plus the commitments of the local contributions it can serve.
type JoinOffer struct {
	Rank    int
	Nonce   uint64
	Commits []JoinCommit
}

// appendCommits serialises a commit list — an offer's and an admit's alike:
// uvarint count, then per commit uvarint source, uvarint length, manifest.
func appendCommits(buf []byte, commits []JoinCommit) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(commits)))
	for _, c := range commits {
		buf = binary.AppendUvarint(buf, uint64(c.Source))
		buf = binary.AppendUvarint(buf, uint64(len(c.Manifest)))
		buf = append(buf, c.Manifest...)
	}
	return buf
}

// readCommits inverts appendCommits. Manifest bytes are copied, not aliased,
// because commits outlive the wire buffer.
func readCommits(r *wire.Reader) []JoinCommit {
	var out []JoinCommit
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, JoinCommit{Source: r.Int(maxRank), Manifest: append([]byte(nil), r.Block()...)})
	}
	return out
}

// EncodeJoinOffers serialises an offer list: uvarint count, then per offer
// uvarint rank, 8-byte big-endian nonce, commit list.
func EncodeJoinOffers(offers []JoinOffer) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(offers)))
	for _, o := range offers {
		buf = binary.AppendUvarint(buf, uint64(o.Rank))
		buf = binary.BigEndian.AppendUint64(buf, o.Nonce)
		buf = appendCommits(buf, o.Commits)
	}
	return buf
}

// DecodeJoinOffers inverts EncodeJoinOffers.
func DecodeJoinOffers(payload []byte) ([]JoinOffer, error) {
	r := wire.NewReader(payload)
	var out []JoinOffer
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, JoinOffer{Rank: r.Int(maxRank), Nonce: r.Uint64(), Commits: readCommits(&r)})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("comm: join offers: %w", err)
	}
	return out, nil
}

// mergeOffers folds src into dst (keyed by joiner rank). The rule is
// commutative, associative and idempotent, so every survivor that hears the
// same message set converges on the same union regardless of arrival order:
// the higher nonce wins a joiner conflict (a fresh incarnation supersedes a
// stale hello), and commits merge by source with the lexicographically
// smaller manifest winning a source conflict (deterministic, and a conflict
// means a stale mix that the manifest identity check rejects later anyway).
func mergeOffers(dst map[int]*JoinOffer, src []JoinOffer) {
	for _, o := range src {
		cur, ok := dst[o.Rank]
		switch {
		case !ok || o.Nonce > cur.Nonce:
			cp := o
			cp.Commits = append([]JoinCommit(nil), o.Commits...)
			dst[o.Rank] = &cp
		case o.Nonce < cur.Nonce:
			// Stale incarnation: drop.
		default:
			for _, c := range o.Commits {
				merged := false
				for i := range cur.Commits {
					if cur.Commits[i].Source == c.Source {
						if string(c.Manifest) < string(cur.Commits[i].Manifest) {
							cur.Commits[i].Manifest = c.Manifest
						}
						merged = true
						break
					}
				}
				if !merged {
					cur.Commits = append(cur.Commits, c)
				}
			}
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
func AgreeJoin(c Comm, m *Membership, mine []JoinOffer, timeout time.Duration) ([]JoinOffer, error) {
	union := map[int]*JoinOffer{}
	mergeOffers(union, mine)
	aborted := false
	for round := 0; round < 2; round++ {
		payload := []byte{0}
		if aborted {
			payload[0] = 1
		}
		payload = append(payload, EncodeJoinOffers(unionOffers(union))...)
		err := m.round(c, joinAgreeTag(m.epoch, round), payload, timeout, nil,
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

func unionOffers(union map[int]*JoinOffer) []JoinOffer {
	out := make([]JoinOffer, 0, len(union))
	for _, o := range union {
		cp := *o
		sort.Slice(cp.Commits, func(i, j int) bool { return cp.Commits[i].Source < cp.Commits[j].Source })
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// JoinAdmit is the sponsor's admission message to the joiner: the nonce it
// echoes, the join epoch (the epoch the survivors will Revive at, strictly
// higher than any the joiner has seen), the ranks still dead after the
// revive, and the certified manifests of every contribution it will receive.
type JoinAdmit struct {
	Nonce   uint64
	Epoch   int
	Dead    []int
	Commits []JoinCommit
}

// Encode serialises the admit: 8-byte big-endian nonce, uvarint epoch, the
// dead ranks as a rank set, commit list.
func (a JoinAdmit) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Nonce)
	buf = binary.AppendUvarint(buf, uint64(a.Epoch))
	buf = append(buf, EncodeRankSet(a.Dead)...)
	return appendCommits(buf, a.Commits)
}

// DecodeJoinAdmit inverts Encode.
func DecodeJoinAdmit(payload []byte) (JoinAdmit, error) {
	r := wire.NewReader(payload)
	a := JoinAdmit{Nonce: r.Uint64(), Epoch: r.Int(maxEpoch), Dead: readRankSet(&r), Commits: readCommits(&r)}
	if err := r.Done(); err != nil {
		return JoinAdmit{}, fmt.Errorf("comm: join admit: %w", err)
	}
	return a, nil
}

// EncodeJoinDone serialises the joiner's JOIN-DONE: a status byte (1 = the
// transfer verified completely) and the count of chunks verified.
func EncodeJoinDone(ok bool, verifiedChunks int) []byte {
	buf := make([]byte, 1, 1+binary.MaxVarintLen64)
	if ok {
		buf[0] = 1
	}
	return binary.AppendUvarint(buf, uint64(verifiedChunks))
}

// DecodeJoinDone inverts EncodeJoinDone.
func DecodeJoinDone(payload []byte) (ok bool, verifiedChunks int, err error) {
	r := wire.NewReader(payload)
	status, n := r.Bytes(1), r.Int(maxEpoch)
	if err := r.Done(); err != nil {
		return false, 0, fmt.Errorf("comm: join done: %w", err)
	}
	return status[0] == 1, n, nil
}
