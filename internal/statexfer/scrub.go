package statexfer

import (
	"sort"
	"sync"
)

// Scrubber fingerprints byte blobs (buddy replicas, in practice) with merkle
// roots so silent corruption — a bit flip in a replica that sits unused
// until the day it is the only copy — is caught by a periodic re-hash and
// repaired from the live source before it is ever needed.
//
// The scrubber only remembers roots, never data: Verify re-hashes the
// caller's current bytes against the root recorded at Track time.
type Scrubber struct {
	mu        sync.Mutex
	chunkSize int
	roots     map[string][32]byte
}

// NewScrubber creates a scrubber hashing at the given chunk size (<= 0
// selects DefaultChunkSize).
func NewScrubber(chunkSize int) *Scrubber {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Scrubber{chunkSize: chunkSize, roots: map[string][32]byte{}}
}

// Track records the merkle root of data under key, replacing any previous
// fingerprint — call when a fresh verified copy is installed.
func (s *Scrubber) Track(key string, data []byte) {
	root := Root(data, s.chunkSize)
	s.mu.Lock()
	s.roots[key] = root
	s.mu.Unlock()
}

// Tracked reports whether key has a recorded fingerprint.
func (s *Scrubber) Tracked(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.roots[key]
	return ok
}

// Verify re-hashes data and reports whether it still matches the fingerprint
// recorded for key. An untracked key never verifies.
func (s *Scrubber) Verify(key string, data []byte) bool {
	s.mu.Lock()
	root, ok := s.roots[key]
	s.mu.Unlock()
	return ok && Root(data, s.chunkSize) == root
}

// Keys lists the tracked keys in sorted order — the scrub loop's work list.
func (s *Scrubber) Keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.roots))
	for k := range s.roots {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}
