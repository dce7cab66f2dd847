package statexfer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func testSections(rng *rand.Rand, n, size int) []Section {
	secs := make([]Section, n)
	for i := range secs {
		data := make([]byte, size)
		rng.Read(data)
		secs[i] = Section{Name: string(rune('a' + i)), Data: data}
	}
	return secs
}

// TestSnapshotRoundTrip builds snapshots at several chunk sizes, ships every
// chunk frame through the assembler, and asserts the reassembled sections are
// byte-identical — including chunk counts that exercise odd merkle levels.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cs := range []int{16, 100, 1 << 12, DefaultChunkSize} {
		for _, nsec := range []int{0, 1, 3} {
			secs := testSections(rng, nsec, 700)
			snap, err := Build(5, 4, 2, secs, cs)
			if err != nil {
				t.Fatal(err)
			}
			asm, err := NewAssembler(snap.Manifest)
			if err != nil {
				t.Fatal(err)
			}
			// Deliver frames in a shuffled order with one duplicate.
			order := rng.Perm(snap.NumChunks())
			order = append(order, order[0])
			freshCount := 0
			for _, i := range order {
				fresh, err := asm.AddFrame(snap.ChunkFrame(i))
				if err != nil {
					t.Fatalf("cs=%d nsec=%d chunk %d: %v", cs, nsec, i, err)
				}
				if fresh {
					freshCount++
				}
			}
			if freshCount != snap.NumChunks() || asm.verified != snap.NumChunks() {
				t.Fatalf("verified %d of %d chunks", asm.verified, snap.NumChunks())
			}
			blob, err := asm.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSections(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(secs) {
				t.Fatalf("decoded %d sections, want %d", len(got), len(secs))
			}
			for i := range secs {
				if got[i].Name != secs[i].Name || !bytes.Equal(got[i].Data, secs[i].Data) {
					t.Fatalf("section %d differs after round trip", i)
				}
			}
		}
	}
}

// TestCorruptChunkRejected flips one byte in every position class of a chunk
// frame (data, proof, index) and asserts the assembler rejects it with the
// typed errors — and that the pristine frame still verifies afterwards.
func TestCorruptChunkRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	snap, err := Build(1, 0, 1, testSections(rng, 2, 500), 64)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumChunks() < 3 {
		t.Fatalf("want >= 3 chunks, got %d", snap.NumChunks())
	}
	asm, err := NewAssembler(snap.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	frame := snap.ChunkFrame(1)
	for pos := 0; pos < len(frame); pos++ {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x40
		if _, err := asm.AddFrame(bad); err == nil {
			t.Fatalf("corrupt byte at %d accepted", pos)
		} else if !errors.Is(err, ErrChunkMismatch) && !errors.Is(err, ErrBadProof) && !errors.Is(err, ErrFrame) {
			t.Fatalf("corrupt byte at %d: untyped rejection %v", pos, err)
		}
	}
	if asm.verified != 0 {
		t.Fatalf("corrupt frames counted as verified: %d", asm.verified)
	}
	if _, err := asm.AddFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected after corrupt attempts: %v", err)
	}
}

// TestChunkFromWrongSnapshotRejected: a valid chunk of a different snapshot
// must fail against this manifest's root, not be silently accepted.
func TestChunkFromWrongSnapshotRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, err := Build(1, 0, 1, testSections(rng, 1, 300), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(1, 0, 1, testSections(rng, 1, 300), 64)
	if err != nil {
		t.Fatal(err)
	}
	index, data, proof, err := DecodeChunkFrame(b.ChunkFrame(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChunk(a.Manifest, index, data, proof); !errors.Is(err, ErrChunkMismatch) {
		t.Fatalf("foreign chunk verified against the wrong root: %v", err)
	}
}

// TestCheckIdentity: a manifest certified for another joiner or epoch is
// stale, typed as such.
func TestCheckIdentity(t *testing.T) {
	m := Manifest{Joiner: 3, Epoch: 2, ChunkSize: 64}
	if err := CheckIdentity(m, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckIdentity(m, 4, 2); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong joiner accepted: %v", err)
	}
	if err := CheckIdentity(m, 3, 1); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong epoch accepted: %v", err)
	}
}

// TestManifestRoundTrip pins the manifest codec.
func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{Joiner: 7, Source: 6, Epoch: 3, ChunkSize: 4096, TotalLen: 123457}
	for i := range m.Root {
		m.Root[i] = byte(i * 7)
	}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, m)
	}
	if _, err := DecodeManifest(m.Encode()[:10]); !errors.Is(err, ErrManifest) {
		t.Fatalf("truncated manifest accepted: %v", err)
	}
}

// TestScrubberDetectsFlip is the satellite's scrubber unit test: track a
// replica, flip a byte, assert detection; repair (restore + re-track),
// assert the fingerprint verifies again.
func TestScrubberDetectsFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 5000)
	rng.Read(data)
	pristine := append([]byte(nil), data...)

	s := NewScrubber(256)
	s.Track("replica:3", data)
	if !s.Verify("replica:3", data) {
		t.Fatal("fresh replica does not verify")
	}
	data[4321] ^= 0x01 // silent corruption
	if s.Verify("replica:3", data) {
		t.Fatal("bit flip not detected")
	}
	// Repair from the live copy, as the scrub exchange does.
	copy(data, pristine)
	if !s.Verify("replica:3", data) {
		t.Fatal("repaired replica does not verify")
	}
	if s.Verify("replica:unknown", data) {
		t.Fatal("untracked key verified")
	}
	if got := s.Keys(); len(got) != 1 || got[0] != "replica:3" {
		t.Fatalf("Keys() = %v", got)
	}
}

// FuzzSnapshotManifestDecode: DecodeManifest must never panic, and every
// accepted manifest must re-encode to an equal manifest.
func FuzzSnapshotManifestDecode(f *testing.F) {
	f.Add([]byte{})
	m := Manifest{Joiner: 1, Source: 2, Epoch: 3, ChunkSize: 64, TotalLen: 1000}
	f.Add(m.Encode())
	f.Add(m.Encode()[:20])
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeManifest(payload)
		if err != nil {
			return
		}
		got, err := DecodeManifest(m.Encode())
		if err != nil || !got.Equal(m) {
			t.Fatalf("re-decode of accepted manifest failed: %+v %v", m, err)
		}
	})
}

// FuzzChunkFrameDecode: DecodeChunkFrame and VerifyChunk must never panic on
// arbitrary frames, and must never verify a frame against a random manifest.
func FuzzChunkFrameDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	snap, err := Build(1, 0, 1, testSections(rng, 1, 200), 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.ChunkFrame(0), false)
	f.Add([]byte{0, 0, 0}, true)
	f.Fuzz(func(t *testing.T, frame []byte, corruptRoot bool) {
		index, data, proof, err := DecodeChunkFrame(frame)
		if err != nil {
			return
		}
		m := snap.Manifest
		if corruptRoot {
			m.Root[0] ^= 0xFF
			if VerifyChunk(m, index, data, proof) == nil {
				t.Fatal("chunk verified against a corrupted root")
			}
		} else {
			_ = VerifyChunk(m, index, data, proof)
		}
	})
}
