// The deterministic-interleaving stage of the differential test harness: a
// receive-side reorder buffer that releases concurrently in-flight messages
// in an order that is a pure function of (seed, source, tag). The inbox
// (fabricInbox.next) drains everything that has arrived for its pending set
// into the buffer with non-blocking polls and releases exactly one
// minimum-priority message at a time, so any burst of simultaneously
// outstanding messages is delivered in the seeded permutation — and sweeping
// seeds in the differential tests permutes the interleavings the executors
// must be invariant to.
//
// The buffer is intentionally work-conserving: it only reorders messages
// that have already arrived, never holding delivery hostage to a message
// that may causally depend on the held ones (a strict total order over all
// expected messages can deadlock small in-flight windows, because later
// tiles are not even claimed until earlier ones finish).
package compositor

import (
	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
)

// ilMsg is one buffered message awaiting seeded release.
type ilMsg struct {
	from, tag int
	payload   []byte
	prio      uint64
	seq       int // arrival order, the deterministic tie-break
}

// interleaver is the reorder buffer. Buffers are small (a burst of
// in-flight messages), so a linear min-scan beats heap bookkeeping.
type interleaver struct {
	seed int64
	buf  []ilMsg
	seq  int
}

func newInterleaver(seed int64) *interleaver {
	if seed == 0 {
		return nil
	}
	return &interleaver{seed: seed}
}

// len is the number of buffered messages; a nil buffer (seed 0) holds none.
func (il *interleaver) len() int {
	if il == nil {
		return 0
	}
	return len(il.buf)
}

// holds reports whether the message named by k is buffered: the inbox must
// not ask the fabric for it again (a duplicated delivery would answer).
func (il *interleaver) holds(k comm.MsgKey) bool {
	if il != nil {
		for i := range il.buf {
			if il.buf[i].from == k.From && il.buf[i].tag == k.Tag {
				return true
			}
		}
	}
	return false
}

func (il *interleaver) push(from, tag int, payload []byte) {
	il.buf = append(il.buf, ilMsg{
		from:    from,
		tag:     tag,
		payload: payload,
		prio:    msgPriority(il.seed, from, tag),
		seq:     il.seq,
	})
	il.seq++
}

// pop removes and returns the minimum-priority buffered message.
func (il *interleaver) pop() (from, tag int, payload []byte) {
	best := 0
	for i := 1; i < len(il.buf); i++ {
		if il.buf[i].prio < il.buf[best].prio ||
			(il.buf[i].prio == il.buf[best].prio && il.buf[i].seq < il.buf[best].seq) {
			best = i
		}
	}
	m := il.buf[best]
	last := len(il.buf) - 1
	il.buf[best] = il.buf[last]
	il.buf[last] = ilMsg{}
	il.buf = il.buf[:last]
	return m.from, m.tag, m.payload
}

// release recycles whatever a failed or stopped run left buffered.
func (il *interleaver) release() {
	if il == nil {
		return
	}
	for i := range il.buf {
		bufpool.Put(il.buf[i].payload)
		il.buf[i] = ilMsg{}
	}
	il.buf = il.buf[:0]
}

// msgPriority hashes (seed, from, tag) with a splitmix64-style finalizer.
// Every expected (from, tag) pair is unique within an epoch, so priorities
// induce a deterministic order over any set of co-buffered messages.
func msgPriority(seed int64, from, tag int) uint64 {
	x := uint64(seed) ^ uint64(from)*0x9E3779B97F4A7C15 ^ uint64(tag)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
