package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestHistQuantileGolden pins exact quantile outputs for a known
// observation set, including the log-bucket rounding.
func TestHistQuantileGolden(t *testing.T) {
	h := &Histogram{}
	// 1..100 microseconds: p50 must land in the bucket holding 50us, p99 in
	// the bucket holding 99us. With 8 sub-buckets per octave the bucket
	// upper bounds are exact powers-of-two fractions.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		// 50us = 50000ns: exp=15, width=2^12, bucket [49152, 53247].
		{0.50, 53247},
		// 95us = 95000ns: exp=16, width=2^13, bucket [90112, 98303].
		{0.95, 98303},
		// 99us and 100us share the next bucket, [98304, 106495].
		{0.99, 106495},
		{1.00, 106495},
		// First observation: 1us = 1000ns: exp=9, width=2^6, [960, 1023].
		{0.0, 1023},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	wantSum := time.Duration(0)
	for i := 1; i <= 100; i++ {
		wantSum += time.Duration(i) * time.Microsecond
	}
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistBucketInvariants proves every value lands in a bucket whose
// bounds contain it, across the whole covered range.
func TestHistBucketInvariants(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1000, 1e6, 1e9, 1e12, 1 << histMaxExp}
	for _, v := range values {
		idx := histBucket(v)
		if idx < 0 || idx >= HistBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, idx)
		}
		upper := histUpper(idx)
		if v > upper {
			t.Errorf("value %d above its bucket upper %d (idx %d)", v, upper, idx)
		}
		if idx > 0 && v <= histUpper(idx-1) {
			t.Errorf("value %d not above previous bucket upper %d (idx %d)", v, histUpper(idx-1), idx)
		}
	}
	// Clamp: beyond the covered range everything lands in the last bucket.
	if got := histBucket(1 << 50); got != HistBuckets-1 {
		t.Errorf("histBucket(2^50) = %d, want last bucket %d", got, HistBuckets-1)
	}
	// Monotone upper bounds.
	for i := 1; i < HistBuckets; i++ {
		if histUpper(i) <= histUpper(i-1) {
			t.Fatalf("histUpper not monotone at %d", i)
		}
	}
}

func TestHistEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram must read as empty")
	}
	h := &Histogram{}
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// TestHistConcurrentRecording hammers one histogram from many goroutines —
// run under -race this is the concurrency proof.
func TestHistConcurrentRecording(t *testing.T) {
	rec := New()
	h := rec.Hist(0, "conc")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
				rec.Observe(1, "conc", time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("Count = %d, want %d", h.Count(), workers*per)
	}
	if rec.Hist(1, "conc").Count() != workers*per {
		t.Errorf("recorder-registry count = %d, want %d", rec.Hist(1, "conc").Count(), workers*per)
	}
}

// TestHistObserveZeroAllocs is the bench guard: recording into a histogram
// must not allocate in steady state.
func TestHistObserveZeroAllocs(t *testing.T) {
	h := &Histogram{}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123456 * time.Nanosecond)
	}); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", allocs)
	}
	rec := New()
	cached := rec.Hist(3, "steady")
	if allocs := testing.AllocsPerRun(1000, func() {
		cached.Observe(time.Millisecond)
	}); allocs != 0 {
		t.Errorf("cached recorder histogram allocates %v/op, want 0", allocs)
	}
}

func TestHistSnapshotMergeQuantile(t *testing.T) {
	rec := New()
	for r := 0; r < 2; r++ {
		h := rec.Hist(r, "lat")
		for i := 0; i < 50; i++ {
			h.Observe(time.Duration(1+r*100) * time.Microsecond)
		}
	}
	// Merge the two ranks' snapshots and check the median splits them.
	dense := make([]int64, HistBuckets)
	var total int64
	for _, k := range []HistKey{{0, "lat"}, {1, "lat"}} {
		st := rec.Hists()[k].Snapshot("lat")
		total += histMerge(dense, st)
	}
	if total != 100 {
		t.Fatalf("merged %d observations, want 100", total)
	}
	p25 := bucketQuantile(dense, total, 0.25)
	p75 := bucketQuantile(dense, total, 0.75)
	if p25 >= 2*time.Microsecond || p75 < 100*time.Microsecond {
		t.Errorf("merged quantiles wrong: p25=%v p75=%v", p25, p75)
	}
}

func TestSummaryCarriesHists(t *testing.T) {
	rec := New()
	end := rec.Span(1, PhaseEncode, CatCompute, 0)
	end()
	rec.Observe(1, HistSessionRTT, 5*time.Millisecond)
	s := rec.Summary(1)
	names := map[string]bool{}
	for _, h := range s.Hists {
		names[h.Name] = true
		if h.Count <= 0 || len(h.Buckets) == 0 {
			t.Errorf("hist %q shipped empty: %+v", h.Name, h)
		}
	}
	if !names[PhaseEncode] || !names[HistSessionRTT] {
		t.Errorf("summary hists missing entries: %v", names)
	}
	if other := rec.Summary(0); len(other.Hists) != 0 {
		t.Errorf("rank 0 summary must not carry rank 1 hists: %+v", other.Hists)
	}
}
