// Package bufpool is the size-classed buffer pool behind the
// allocation-free steady state of the composition pipeline. Every hot-path
// byte buffer — wire frames in the transports, encode scratch and decoded
// fragment data in the compositor — is drawn from and returned to a pool,
// so a long-running composition loop recycles a bounded working set instead
// of churning the garbage collector once per message.
//
// Ownership discipline (the rules that make recycling safe):
//
//   - Get(n) returns a buffer of length n whose backing array is
//     exclusively owned by the caller: no other live reference covers any
//     byte in [0, cap).
//   - Put(buf) hands that exclusive ownership back. The caller must not
//     touch buf afterwards. Put accepts any slice: buffers whose capacity
//     is not exactly one of the pool's size classes (subslices with
//     truncated capacity, buffers from plain make) are silently dropped to
//     the garbage collector, never recycled — so a conservative caller may
//     Put everything it owns and cannot poison the pool with an alias.
//   - Never Put a slice whose capacity extends over bytes someone else can
//     still reach (e.g. a prefix v[:n] of a shared buffer without a
//     capacity cap). Three-index slicing (v[lo:hi:hi]) makes such prefixes
//     safe to Put because the capacity then witnesses the exclusive region.
//
// Unlike sync.Pool, the free lists are plain mutex-guarded LIFOs capped at
// a fixed depth per class: steady-state behaviour is deterministic (a GC
// cycle cannot empty the pool mid-benchmark) and the retained memory is
// bounded by maxPerClass buffers of each class.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minShift to maxShift (64 MiB, the
// transport frame limit). Requests above the largest class fall through to
// plain allocation and are never recycled.
const (
	minShift = 6 // 64 B
	maxShift = 26
	numClass = maxShift - minShift + 1

	// maxPerClass caps each free list so the pool's retained memory stays
	// bounded even if producers outpace consumers. The pipelined executor
	// runs every tile's state machine concurrently, each drawing fragment,
	// message and scratch buffers from the shared pool, so the cap must
	// cover the peak of all in-flight tiles or overflow Puts drop to the
	// garbage collector and every later Get re-allocates (the Drops stat
	// counts exactly these).
	maxPerClass = 256
)

// Pool is a size-classed free-list buffer pool. The zero value is ready to
// use. All methods are safe for concurrent use.
type Pool struct {
	classes [numClass]freeList

	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64 // bytes served from recycled buffers
	drops  atomic.Int64 // recyclable Puts rejected by a full free list
}

type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// Stats is a snapshot of a pool's counters.
type Stats struct {
	Hits   int64 // Gets served from a free list
	Misses int64 // Gets that had to allocate
	Bytes  int64 // bytes served from recycled buffers
	Drops  int64 // recyclable Puts rejected because the class was full
}

// Default is the process-wide pool shared by the transports and the
// compositor.
var Default = &Pool{}

// Get returns Default.Get(n).
func Get(n int) []byte { return Default.Get(n) }

// Put returns buf to Default; see Pool.Put for the ownership contract.
func Put(buf []byte) { Default.Put(buf) }

// classFor maps a request size onto the index of the smallest class that
// fits, or -1 when the request exceeds the largest class.
func classFor(n int) int {
	c, size := 0, 1<<minShift
	for size < n {
		c, size = c+1, size<<1
	}
	if c >= numClass {
		return -1
	}
	return c
}

// classOf maps a capacity onto its class index only when the capacity is
// exactly a class size; any other capacity returns -1 (not recyclable).
func classOf(c int) int {
	if c < 1<<minShift || c > 1<<maxShift || c&(c-1) != 0 {
		return -1
	}
	idx := 0
	for s := 1 << minShift; s < c; s <<= 1 {
		idx++
	}
	return idx
}

// Get returns a buffer of length n with exclusively owned backing storage.
// The contents are unspecified (recycled buffers are not zeroed).
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	ci := classFor(n)
	if ci >= 0 {
		fl := &p.classes[ci]
		fl.mu.Lock()
		if last := len(fl.bufs) - 1; last >= 0 {
			buf := fl.bufs[last]
			fl.bufs[last] = nil
			fl.bufs = fl.bufs[:last]
			fl.mu.Unlock()
			p.hits.Add(1)
			p.bytes.Add(int64(n))
			return buf[:n]
		}
		fl.mu.Unlock()
		p.misses.Add(1)
		return make([]byte, n, 1<<(minShift+ci))
	}
	p.misses.Add(1)
	return make([]byte, n)
}

// Put recycles buf if its capacity is exactly a size class and the class's
// free list has room; otherwise the buffer is dropped to the garbage
// collector. Callers must own buf exclusively (see the package comment) and
// must not use it after Put. A nil or empty-capacity buf is a no-op.
func (p *Pool) Put(buf []byte) {
	ci := classOf(cap(buf))
	if ci < 0 {
		return
	}
	fl := &p.classes[ci]
	fl.mu.Lock()
	if len(fl.bufs) < maxPerClass {
		fl.bufs = append(fl.bufs, buf[:0])
		fl.mu.Unlock()
		return
	}
	fl.mu.Unlock()
	// A full class means a recyclable buffer leaks to the garbage collector
	// and some later Get will re-allocate it: sustained drops are a sizing
	// signal, so they get their own counter.
	p.drops.Add(1)
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load(), Bytes: p.bytes.Load(), Drops: p.drops.Load()}
}
