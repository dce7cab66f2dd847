// Allocation-free log-bucketed latency histograms. A Histogram is a fixed
// array of atomic counters over log-linear duration buckets: below
// histLinearMax nanoseconds the buckets are exact; above, each power-of-two
// octave splits into histSubBuckets sub-buckets, bounding the relative
// quantile error at 1/histSubBuckets (12.5%) while keeping Observe at a
// couple of atomic adds — safe from any goroutine, zero allocations, no
// locks. Quantiles are computed on demand by a cumulative bucket scan.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubShift is log2 of the sub-buckets per octave.
	histSubShift = 3
	// histSubBuckets splits each power-of-two octave of the value range.
	histSubBuckets = 1 << histSubShift
	// histLinearMax bounds the exact low range: values in [0, histLinearMax)
	// nanoseconds each get their own bucket.
	histLinearMax = histSubBuckets
	// histMaxExp caps the covered range at 2^histMaxExp nanoseconds
	// (~18 minutes); larger observations clamp into the last bucket.
	histMaxExp = 40
	// HistBuckets is the total bucket count of a Histogram.
	HistBuckets = histLinearMax + (histMaxExp-histSubShift+1)*histSubBuckets
)

// Histogram is a fixed-size concurrent latency histogram. The zero value is
// ready to use; all methods are safe on a nil receiver.
type Histogram struct {
	counts [HistBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// histBucket maps a non-negative nanosecond value to its bucket index.
func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < histLinearMax {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	if exp > histMaxExp {
		return HistBuckets - 1
	}
	sub := (u >> (uint(exp) - histSubShift)) & (histSubBuckets - 1)
	return histLinearMax + (exp-histSubShift)*histSubBuckets + int(sub)
}

// histUpper is the inclusive upper bound (in nanoseconds) of a bucket — the
// value quantile scans report for any observation landing in it.
func histUpper(idx int) int64 {
	if idx < histLinearMax {
		return int64(idx)
	}
	rel := idx - histLinearMax
	exp := histSubShift + rel/histSubBuckets
	sub := rel % histSubBuckets
	width := int64(1) << (uint(exp) - histSubShift)
	lower := int64(1)<<uint(exp) + int64(sub)*width
	return lower + width - 1
}

// Observe records one duration. Nil-safe, allocation-free, lock-free.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.counts[histBucket(ns)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// Count is the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum is the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (q in [0,1]); 0 for an empty histogram. The result
// overestimates the true quantile by at most one bucket width.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [HistBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return bucketQuantile(counts[:], total, q)
}

// bucketQuantile scans a bucket-count vector for the q-quantile upper bound.
func bucketQuantile(counts []int64, total int64, q float64) time.Duration {
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= target {
			return time.Duration(histUpper(i))
		}
	}
	return time.Duration(histUpper(len(counts) - 1))
}

// HistBin is one non-empty bucket of a portable histogram snapshot.
type HistBin struct {
	Idx int   `json:"i"`
	N   int64 `json:"n"`
}

// HistStat is a portable histogram digest: sparse bucket counts plus the
// running sum, small enough to ship through GatherSummaries and exact
// enough to merge bucket-wise across ranks at rank 0.
type HistStat struct {
	Name    string    `json:"name"`
	Count   int64     `json:"count"`
	SumNs   int64     `json:"sum_ns"`
	Buckets []HistBin `json:"buckets,omitempty"`
}

// Snapshot digests the histogram into its portable form.
func (h *Histogram) Snapshot(name string) HistStat {
	st := HistStat{Name: name}
	if h == nil {
		return st
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			st.Buckets = append(st.Buckets, HistBin{Idx: i, N: n})
			st.Count += n
		}
	}
	st.SumNs = h.sum.Load()
	return st
}

// histMerge accumulates a snapshot into a dense bucket vector, returning
// the added observation count.
func histMerge(dense []int64, st HistStat) int64 {
	var n int64
	for _, b := range st.Buckets {
		if b.Idx >= 0 && b.Idx < len(dense) {
			dense[b.Idx] += b.N
			n += b.N
		}
	}
	return n
}

// Histogram names recorded by the instrumented pipeline. Per-phase duration
// histograms reuse the Phase* constants as names; the names below cover the
// non-phase latency distributions.
const (
	HistSessionRTT     = "session_rtt"     // tcpnet data-frame send -> cumulative ack
	HistPartialLatency = "partial_latency" // pipelined run start -> OnPartial tile delivery
	HistTileLatency    = "tile_latency"    // pipelined tile claim -> fully composited
	HistAdmitWait      = "admit_wait"      // admission queue entry -> slot acquired
	HistRenderLatency  = "render_latency"  // admitted request start -> render complete
)

// HistKey identifies one histogram in a recorder's registry.
type HistKey struct {
	Rank int
	Name string
}

// Hist returns (creating on first use) the named histogram for a rank. The
// returned pointer may be retained and observed from any goroutine; nil is
// returned from a nil recorder and is safe to Observe.
func (r *Recorder) Hist(rank int, name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.histLocked(rank, name)
	r.mu.Unlock()
	return h
}

// histLocked is Hist under an already-held r.mu.
func (r *Recorder) histLocked(rank int, name string) *Histogram {
	k := HistKey{Rank: rank, Name: name}
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Observe records one duration into the named histogram of a rank.
func (r *Recorder) Observe(rank int, name string, d time.Duration) {
	r.Hist(rank, name).Observe(d)
}

// Hists returns a snapshot of the histogram registry: for each (rank, name)
// the live histogram pointer. Intended for exporters; Observe calls racing
// the export are simply counted or not.
func (r *Recorder) Hists() map[HistKey]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[HistKey]*Histogram, len(r.hists))
	for k, h := range r.hists {
		out[k] = h
	}
	return out
}
