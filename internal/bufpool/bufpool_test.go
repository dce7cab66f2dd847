package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int // expected capacity class size, 0 = no class
	}{
		{1, 64},
		{64, 64},
		{65, 128},
		{1024, 1024},
		{1025, 2048},
		{1 << 26, 1 << 26},
		{1<<26 + 1, 0},
	}
	for _, c := range cases {
		ci := classFor(c.n)
		if c.want == 0 {
			if ci != -1 {
				t.Errorf("classFor(%d) = %d, want -1", c.n, ci)
			}
			continue
		}
		if ci < 0 || 1<<(minShift+ci) != c.want {
			t.Errorf("classFor(%d) = class %d, want class of size %d", c.n, ci, c.want)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := &Pool{}
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want len=100 cap=128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(90)
	if &a[:1][0] != &b[:1][0] {
		t.Fatalf("Get after Put did not recycle the buffer")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 90 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 bytes=90", st)
	}
}

func TestPutRejectsOffClassCapacity(t *testing.T) {
	p := &Pool{}
	a := p.Get(128)
	// A prefix without a capacity cap still has the full class capacity and
	// is recyclable; a three-index capped prefix is not (cap 100 is no
	// class) and must be dropped.
	p.Put(a[:100:100])
	if b := p.Get(128); &a[0] == &b[0] {
		t.Fatalf("pool recycled a capacity-capped subslice")
	}
	p.Put(make([]byte, 100)) // off-class make: dropped
	p.Put(nil)               // no-op
	st := p.Stats()
	if st.Hits != 0 {
		t.Fatalf("off-class Put produced a hit: %+v", st)
	}
}

func TestGetZero(t *testing.T) {
	p := &Pool{}
	if buf := p.Get(0); buf != nil {
		t.Fatalf("Get(0) = %v, want nil", buf)
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	p := &Pool{}
	a := p.Get(1<<26 + 1)
	if len(a) != 1<<26+1 {
		t.Fatalf("oversize Get returned len %d", len(a))
	}
	p.Put(a) // dropped: capacity exceeds the largest class
	if st := p.Stats(); st.Misses != 1 {
		t.Fatalf("oversize Get not counted as miss: %+v", st)
	}
}

func TestFreeListBounded(t *testing.T) {
	p := &Pool{}
	for i := 0; i < 2*maxPerClass; i++ {
		p.Put(make([]byte, 64))
	}
	if n := len(p.classes[0].bufs); n != maxPerClass {
		t.Fatalf("free list holds %d buffers, want %d", n, maxPerClass)
	}
	if st := p.Stats(); st.Drops != maxPerClass {
		t.Fatalf("drops = %d, want %d (overflow puts past the cap)", st.Drops, maxPerClass)
	}
}

func TestDropCounterMirrored(t *testing.T) {
	p := &Pool{}
	for i := 0; i < maxPerClass+3; i++ {
		p.Put(make([]byte, 64))
	}
	// Non-class capacities are aliasing hazards, not sizing signals: they
	// stay out of the drop count.
	p.Put(make([]byte, 65))
	if st := p.Stats(); st.Drops != 3 {
		t.Errorf("drops = %d after non-class Put, want 3", st.Drops)
	}
}

// TestConcurrentGetPut runs under -race: many goroutines hammer the same
// classes so lock-ordering or list-corruption bugs surface.
func TestConcurrentGetPut(t *testing.T) {
	p := &Pool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sizes := []int{64, 100, 1024, 4096, 65536}
			for i := 0; i < 500; i++ {
				buf := p.Get(sizes[(seed+i)%len(sizes)])
				for j := range buf {
					buf[j] = byte(seed)
				}
				p.Put(buf)
			}
		}(g)
	}
	wg.Wait()
}

// TestSteadyStateAllocFree proves the pool's whole point: once warm, a
// Get/Put cycle performs zero heap allocations.
func TestSteadyStateAllocFree(t *testing.T) {
	p := &Pool{}
	p.Put(p.Get(4096)) // warm the class
	allocs := testing.AllocsPerRun(100, func() {
		buf := p.Get(4096)
		p.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v times per op, want 0", allocs)
	}
}
