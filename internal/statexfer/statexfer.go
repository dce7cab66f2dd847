// Package statexfer moves per-rank state between ranks with cryptographic
// integrity: a snapshot (a named-section blob — sub-image replica, ward
// replicas, schedule position) is split into fixed-size chunks, every chunk
// is hashed into a SHA-256 merkle tree, and the tree root travels inside the
// membership agreement that admits a joiner — so the joiner verifies every
// fetched chunk against a commitment *certified by the agreement round*, and
// a corrupt or stale transfer is rejected with a typed error instead of
// silently restoring garbage.
//
// The same chunk/merkle machinery backs the replica scrubber (scrub.go):
// a holder re-hashes its buddy replicas against the roots recorded at the
// exchange and repairs silent corruption from the live copy before the
// replica is ever needed.
package statexfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"rtcomp/internal/wire"
)

// DefaultChunkSize is the snapshot chunk size when the caller passes zero:
// small enough that a damaged transfer is rejected after one chunk, large
// enough that a sub-image snapshot is a handful of messages.
const DefaultChunkSize = 64 << 10

// Typed rejection errors. Everything a joiner can refuse is one of these,
// so callers distinguish "retry with another source" from "local bug".
var (
	// ErrManifest flags a manifest that does not decode or is internally
	// inconsistent (zero chunk size, impossible lengths).
	ErrManifest = errors.New("statexfer: corrupt or invalid manifest")
	// ErrFrame flags a chunk frame that does not parse.
	ErrFrame = errors.New("statexfer: corrupt chunk frame")
	// ErrBadProof flags a merkle proof with the wrong shape for its index.
	ErrBadProof = errors.New("statexfer: merkle proof does not verify")
	// ErrChunkMismatch flags a chunk whose recomputed root differs from the
	// certified commitment — the transfer carried corrupt or substituted data.
	ErrChunkMismatch = errors.New("statexfer: chunk does not match certified root")
	// ErrStale flags a transfer certified for a different joiner or epoch.
	ErrStale = errors.New("statexfer: transfer certified for a different joiner or epoch")
	// ErrIncomplete flags an assembly read before every chunk arrived.
	ErrIncomplete = errors.New("statexfer: snapshot incomplete")
)

// Section is one named piece of rank state inside a snapshot blob.
type Section struct {
	Name string
	Data []byte
}

// EncodeSections serialises sections as uvarint count, then per section
// uvarint(len(name)), name, uvarint(len(data)), data.
func EncodeSections(secs []Section) []byte {
	size := binary.MaxVarintLen64
	for _, s := range secs {
		size += 2*binary.MaxVarintLen64 + len(s.Name) + len(s.Data)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(secs)))
	for _, s := range secs {
		buf = binary.AppendUvarint(buf, uint64(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	return buf
}

// DecodeSections inverts EncodeSections. Section data aliases blob.
func DecodeSections(blob []byte) ([]Section, error) {
	r := wire.NewReader(blob)
	var out []Section
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		out = append(out, Section{Name: string(r.Block()), Data: r.Block()})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: sections: %v", ErrFrame, err)
	}
	return out, nil
}

// Manifest is the commitment a transfer is verified against: who it restores,
// who serves it, which join epoch certified it, and the merkle root over its
// chunks. It is small enough to ride inside the join agreement payload.
type Manifest struct {
	Joiner    int // rank being restored
	Source    int // rank serving the chunks
	Epoch     int // join epoch the commitment was certified for
	ChunkSize int
	TotalLen  int
	Root      [32]byte
}

// NumChunks derives the chunk count from the committed lengths.
func (m Manifest) NumChunks() int {
	if m.ChunkSize <= 0 {
		return 0
	}
	if m.TotalLen == 0 {
		return 1 // an empty snapshot still has one (empty) chunk
	}
	return (m.TotalLen + m.ChunkSize - 1) / m.ChunkSize
}

// Encode serialises the manifest: five uvarints then the raw 32-byte root.
func (m Manifest) Encode() []byte {
	buf := make([]byte, 0, 5*binary.MaxVarintLen64+32)
	buf = binary.AppendUvarint(buf, uint64(m.Joiner))
	buf = binary.AppendUvarint(buf, uint64(m.Source))
	buf = binary.AppendUvarint(buf, uint64(m.Epoch))
	buf = binary.AppendUvarint(buf, uint64(m.ChunkSize))
	buf = binary.AppendUvarint(buf, uint64(m.TotalLen))
	return append(buf, m.Root[:]...)
}

// maxSnapshotLen bounds the committed snapshot length a decoded manifest may
// claim, so a corrupt manifest cannot make an assembler allocate absurdly.
const maxSnapshotLen = 1 << 32

// DecodeManifest inverts Encode; every failure wraps ErrManifest.
func DecodeManifest(payload []byte) (Manifest, error) {
	r := wire.NewReader(payload)
	m := Manifest{Joiner: r.Int(maxSnapshotLen), Source: r.Int(maxSnapshotLen), Epoch: r.Int(maxSnapshotLen),
		ChunkSize: r.Int(maxSnapshotLen), TotalLen: r.Int(maxSnapshotLen)}
	copy(m.Root[:], r.Bytes(len(m.Root)))
	if err := r.Done(); err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if m.ChunkSize <= 0 {
		return Manifest{}, fmt.Errorf("%w: chunk size %d", ErrManifest, m.ChunkSize)
	}
	return m, nil
}

// Snapshot is a built, chunked, merkle-hashed state blob on the serving side.
type Snapshot struct {
	Manifest Manifest
	blob     []byte
	levels   [][][32]byte // levels[0] = leaf hashes, last level has one node
}

// Build chunks the encoded sections and hashes the merkle tree. chunkSize <=
// 0 selects DefaultChunkSize.
func Build(joiner, source, epoch int, secs []Section, chunkSize int) (*Snapshot, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	blob := EncodeSections(secs)
	if len(blob) > maxSnapshotLen {
		return nil, fmt.Errorf("statexfer: snapshot of %d bytes exceeds the %d-byte bound", len(blob), maxSnapshotLen)
	}
	s := &Snapshot{
		Manifest: Manifest{Joiner: joiner, Source: source, Epoch: epoch, ChunkSize: chunkSize, TotalLen: len(blob)},
		blob:     blob,
	}
	n := s.Manifest.NumChunks()
	leaves := make([][32]byte, n)
	for i := 0; i < n; i++ {
		leaves[i] = leafHash(i, s.chunkData(i))
	}
	s.levels = buildLevels(leaves)
	s.Manifest.Root = s.levels[len(s.levels)-1][0]
	return s, nil
}

// NumChunks returns the chunk count of the built snapshot.
func (s *Snapshot) NumChunks() int { return s.Manifest.NumChunks() }

func (s *Snapshot) chunkData(i int) []byte {
	lo := i * s.Manifest.ChunkSize
	hi := lo + s.Manifest.ChunkSize
	if hi > len(s.blob) {
		hi = len(s.blob)
	}
	return s.blob[lo:hi]
}

// ChunkFrame serialises chunk i for the wire: uvarint index, uvarint data
// length, data, uvarint proof length, then the proof hashes bottom-up.
func (s *Snapshot) ChunkFrame(i int) []byte {
	data := s.chunkData(i)
	proof := s.proof(i)
	buf := make([]byte, 0, 3*binary.MaxVarintLen64+len(data)+32*len(proof))
	buf = binary.AppendUvarint(buf, uint64(i))
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	buf = append(buf, data...)
	buf = binary.AppendUvarint(buf, uint64(len(proof)))
	for _, h := range proof {
		buf = append(buf, h[:]...)
	}
	return buf
}

// proof collects chunk i's sibling hashes bottom-up. A node promoted past an
// odd level boundary contributes no sibling.
func (s *Snapshot) proof(i int) [][32]byte {
	var out [][32]byte
	idx := i
	for _, level := range s.levels[:len(s.levels)-1] {
		if sib := idx ^ 1; sib < len(level) {
			out = append(out, level[sib])
		}
		idx /= 2
	}
	return out
}

// maxProofLen bounds a chunk's merkle path: 64 levels cover any index.
const maxProofLen = 64

// DecodeChunkFrame inverts ChunkFrame; data aliases payload. Every failure
// wraps ErrFrame.
func DecodeChunkFrame(payload []byte) (index int, data []byte, proof [][32]byte, err error) {
	r := wire.NewReader(payload)
	index, data = r.Int(maxSnapshotLen), r.Block()
	proof = make([][32]byte, r.Int(min(maxProofLen, r.Len()/32)))
	for i := range proof {
		copy(proof[i][:], r.Bytes(32))
	}
	if err := r.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	return index, data, proof, nil
}

// VerifyChunk checks one chunk against the certified manifest: the committed
// length for its index, and the merkle path from its leaf hash to the root.
func VerifyChunk(m Manifest, index int, data []byte, proof [][32]byte) error {
	n := m.NumChunks()
	if index < 0 || index >= n {
		return fmt.Errorf("%w: chunk index %d of %d", ErrFrame, index, n)
	}
	want := m.ChunkSize
	if index == n-1 {
		want = m.TotalLen - (n-1)*m.ChunkSize
	}
	if len(data) != want {
		return fmt.Errorf("%w: chunk %d is %d bytes, committed %d", ErrChunkMismatch, index, len(data), want)
	}
	h := leafHash(index, data)
	idx, size, pi := index, n, 0
	for size > 1 {
		if idx == size-1 && size%2 == 1 {
			// Promoted past an odd level: no sibling at this height.
		} else {
			if pi >= len(proof) {
				return fmt.Errorf("%w: proof too short for chunk %d", ErrBadProof, index)
			}
			if idx%2 == 0 {
				h = nodeHash(h, proof[pi])
			} else {
				h = nodeHash(proof[pi], h)
			}
			pi++
		}
		idx /= 2
		size = (size + 1) / 2
	}
	if pi != len(proof) {
		return fmt.Errorf("%w: proof too long for chunk %d", ErrBadProof, index)
	}
	if h != m.Root {
		return fmt.Errorf("%w: chunk %d", ErrChunkMismatch, index)
	}
	return nil
}

// Assembler reassembles a snapshot on the joiner side, verifying every chunk
// against the certified manifest as it lands.
type Assembler struct {
	m        Manifest
	got      []bool
	buf      []byte
	verified int
}

// NewAssembler validates the manifest shape and prepares the buffer.
func NewAssembler(m Manifest) (*Assembler, error) {
	if m.ChunkSize <= 0 || m.TotalLen < 0 || m.TotalLen > maxSnapshotLen {
		return nil, fmt.Errorf("%w: chunk size %d, total %d", ErrManifest, m.ChunkSize, m.TotalLen)
	}
	return &Assembler{m: m, got: make([]bool, m.NumChunks()), buf: make([]byte, m.TotalLen)}, nil
}

// AddFrame decodes, verifies and places one chunk frame. fresh is false for
// a duplicate of an already-verified chunk.
func (a *Assembler) AddFrame(frame []byte) (fresh bool, err error) {
	index, data, proof, err := DecodeChunkFrame(frame)
	if err != nil {
		return false, err
	}
	if err := VerifyChunk(a.m, index, data, proof); err != nil {
		return false, err
	}
	if a.got[index] {
		return false, nil
	}
	a.got[index] = true
	a.verified++
	copy(a.buf[index*a.m.ChunkSize:], data)
	return true, nil
}

// Complete reports whether every chunk has been verified and placed.
func (a *Assembler) Complete() bool { return a.verified == len(a.got) }

// Has reports whether chunk index i has been verified and placed — the
// receive loop's guide for which chunk tags are still outstanding.
func (a *Assembler) Has(i int) bool { return i >= 0 && i < len(a.got) && a.got[i] }

// Bytes returns the reassembled blob, or ErrIncomplete.
func (a *Assembler) Bytes() ([]byte, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("%w: %d of %d chunks", ErrIncomplete, a.verified, len(a.got))
	}
	return a.buf, nil
}

// Root computes the merkle root over raw data at the given chunk size — the
// scrubber's fingerprint, identical to the root a Build over the same bytes
// would commit.
func Root(data []byte, chunkSize int) [32]byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	n := 1
	if len(data) > 0 {
		n = (len(data) + chunkSize - 1) / chunkSize
	}
	leaves := make([][32]byte, n)
	for i := 0; i < n; i++ {
		lo := i * chunkSize
		hi := lo + chunkSize
		if hi > len(data) {
			hi = len(data)
		}
		leaves[i] = leafHash(i, data[lo:hi])
	}
	levels := buildLevels(leaves)
	return levels[len(levels)-1][0]
}

// leafHash domain-separates leaves from interior nodes and binds the chunk
// to its index, so chunk reordering is as detectable as corruption.
func leafHash(index int, data []byte) [32]byte {
	var hdr [9]byte
	binary.BigEndian.PutUint64(hdr[1:], uint64(index))
	h := sha256.New()
	h.Write(hdr[:]) // hdr[0] = 0x00: leaf domain
	h.Write(data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func nodeHash(l, r [32]byte) [32]byte {
	var buf [65]byte
	buf[0] = 0x01 // interior domain
	copy(buf[1:], l[:])
	copy(buf[33:], r[:])
	return sha256.Sum256(buf[:])
}

// buildLevels folds leaves up to the root, promoting an unpaired last node.
func buildLevels(leaves [][32]byte) [][][32]byte {
	if len(leaves) == 0 {
		leaves = [][32]byte{leafHash(0, nil)}
	}
	levels := [][][32]byte{leaves}
	for cur := leaves; len(cur) > 1; {
		next := make([][32]byte, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			if i+1 < len(cur) {
				next = append(next, nodeHash(cur[i], cur[i+1]))
			} else {
				next = append(next, cur[i])
			}
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// CheckIdentity rejects a manifest certified for a different joiner or epoch
// with ErrStale — the one check that is about freshness, not integrity.
func CheckIdentity(m Manifest, joiner, epoch int) error {
	if m.Joiner != joiner || m.Epoch != epoch {
		return fmt.Errorf("%w: manifest for joiner %d epoch %d, want joiner %d epoch %d",
			ErrStale, m.Joiner, m.Epoch, joiner, epoch)
	}
	return nil
}

// Equal reports whether two manifests commit to the same transfer.
func (m Manifest) Equal(o Manifest) bool {
	return m.Joiner == o.Joiner && m.Source == o.Source && m.Epoch == o.Epoch &&
		m.ChunkSize == o.ChunkSize && m.TotalLen == o.TotalLen && bytes.Equal(m.Root[:], o.Root[:])
}
