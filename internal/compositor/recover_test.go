package compositor

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The recovery suite asserts the tentpole contract of the Recover policy:
// killing a rank mid-composition yields the byte-identical fault-free image
// on the survivors (binary-alpha layers make u8 "over" exact), with the
// result flagged Recovered — never Degraded — and the recovery accounted in
// the report. When recovery is impossible (no Rebuild, budget spent) the
// run must fall back to one compose-partial epoch and force Degraded.

// runRecoverCase is runChaosCase generalised to kill any set of ranks:
// dieAfter maps rank -> DieAfterSends (1 = die on the second send, i.e.
// right after the first block send). A dead layer is rebuilt from layers
// unless opts brings its own Rebuild.
func runRecoverCase(t *testing.T, sched *schedule.Schedule, layers []*raster.Image,
	dieAfter map[int]int, opts Options) chaosOutcome {
	t.Helper()
	if opts.Rebuild == nil {
		opts.Rebuild = layerOf(layers)
	}
	p := sched.P
	out := chaosOutcome{
		reports: make([]*Report, p),
		errs:    make([]error, p),
		stats:   make([]faulty.Stats, p),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(inner comm.Comm) error {
			ep := faulty.Wrap(inner, faulty.Plan{Seed: 41, DieAfterSends: dieAfter[inner.Rank()]})
			img, rep, err := Run(ep, sched, layers[inner.Rank()], opts)
			r := inner.Rank()
			out.reports[r] = rep
			out.errs[r] = err
			out.stats[r] = ep.Stats()
			if img != nil && r == 0 {
				out.final = img
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("recovery case HUNG: schedule did not terminate within the watchdog")
	}
	return out
}

func recoverOptions(cdc codec.Codec) Options {
	return Options{
		Codec:       cdc,
		RecvTimeout: 250 * time.Millisecond,
		OnMissing:   Recover,
	}
}

// TestRecoverSingleDeathDifferential is the chaos differential matrix: one
// rank killed after its first block send, for every method and every wire
// codec, must still produce the fault-free golden image exactly.
func TestRecoverSingleDeathDifferential(t *testing.T) {
	codecs := []string{"raw", "rle", "trle"}
	for name, sched := range chaosSchedules(t) {
		for ci, cname := range codecs {
			// Vary the victim across codecs; never the gather root (rank 0):
			// recovery replaces a dead producer, not the image's consumer.
			die := 1 + ci%(sched.P-1)
			t.Run(fmt.Sprintf("%s/%s/kill%d", name, cname, die), func(t *testing.T) {
				cdc, err := codec.ByName(cname)
				if err != nil {
					t.Fatal(err)
				}
				layers, want := chaosLayers(31, sched.P)
				o := runRecoverCase(t, sched, layers, map[int]int{die: 1}, recoverOptions(cdc))
				if err := o.errs[die]; err == nil || !errors.Is(err, faulty.ErrDead) {
					t.Errorf("dead rank error = %v, want ErrDead", err)
				}
				for r, err := range o.errs {
					if r != die && err != nil {
						t.Errorf("survivor rank %d failed: %v", r, err)
					}
				}
				if o.final == nil {
					t.Fatal("no final image on the root")
				}
				if !raster.Equal(o.final, want) {
					t.Fatalf("recovered image differs from fault-free golden: maxdiff=%d",
						raster.MaxDiff(o.final, want))
				}
				for r, rep := range o.reports {
					if r == die || rep == nil {
						continue
					}
					if rep.Degraded {
						t.Errorf("rank %d flagged Degraded on a recovered run", r)
					}
					if !rep.Recovered {
						t.Errorf("rank %d did not flag Recovered", r)
					}
					if rep.RecoveryEpochs < 1 {
						t.Errorf("rank %d RecoveryEpochs = %d, want >= 1", r, rep.RecoveryEpochs)
					}
					if len(rep.RecoveredRanks) != 1 || rep.RecoveredRanks[0] != die {
						t.Errorf("rank %d RecoveredRanks = %v, want [%d]", r, rep.RecoveredRanks, die)
					}
				}
			})
		}
	}
}

// TestRecoverNoFailureStaysClean: with nobody dying, the Recover policy
// must be a pass-through — exact image, no Recovered flag, zero epochs.
func TestRecoverNoFailureStaysClean(t *testing.T) {
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(32, sched.P)
			o := runRecoverCase(t, sched, layers, nil, recoverOptions(codec.TRLE{}))
			for r, err := range o.errs {
				if err != nil {
					t.Errorf("rank %d failed: %v", r, err)
				}
			}
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("fault-free recover run did not reproduce the reference image")
			}
			for r, rep := range o.reports {
				if rep == nil {
					continue
				}
				if rep.Degraded || rep.Recovered || rep.RecoveryEpochs != 0 || len(rep.RecoveredRanks) != 0 {
					t.Errorf("rank %d report claims recovery on a clean run: %+v", r, rep)
				}
			}
		})
	}
}

// TestRecoverPairDeath: adjacent ranks die together. Every rank holds the
// input of every layer, so the survivor in front of them rebuilds all their
// layers, and the frame is Recovered with the golden image, not Degraded.
func TestRecoverPairDeath(t *testing.T) {
	cases := []struct {
		name string
		p    int
		dead []int
	}{
		{"p4/dead2,3", 4, []int{2, 3}},
		{"p8/dead3,4,5", 8, []int{3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := schedule.NRT(tc.p, 4)
			if err != nil {
				t.Fatal(err)
			}
			layers, want := chaosLayers(33, sched.P)
			dieAfter := map[int]int{}
			for _, d := range tc.dead {
				dieAfter[d] = 1
			}
			start := time.Now()
			o := runRecoverCase(t, sched, layers, dieAfter, recoverOptions(codec.Raw{}))
			t.Logf("frame took %v", time.Since(start))
			for r := range layers {
				if dieAfter[r] > 0 {
					if err := o.errs[r]; err == nil || !errors.Is(err, faulty.ErrDead) {
						t.Errorf("dead rank %d error = %v, want ErrDead", r, err)
					}
					continue
				}
				if err := o.errs[r]; err != nil {
					t.Fatalf("survivor rank %d failed: %v", r, err)
				}
				rep := o.reports[r]
				if rep.Degraded || !rep.Recovered || !slices.Equal(rep.RecoveredRanks, tc.dead) {
					t.Errorf("rank %d report %+v, want Recovered for ranks %v, not Degraded", r, rep, tc.dead)
				}
			}
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("recovered image differs from the fault-free golden")
			}
		})
	}
}

// TestRecoverBudgetExhaustedFallsBack: a negative MaxRecoveries forbids
// re-execution, so even a perfectly recoverable single death must go
// straight to the compose-partial fallback — which still rebuilds the dead
// layer, but the uncertified result is forcibly Degraded, never Recovered.
func TestRecoverBudgetExhaustedFallsBack(t *testing.T) {
	sched, err := schedule.BinarySwap(4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(34, sched.P)
	opts := recoverOptions(codec.TRLE{})
	opts.MaxRecoveries = -1
	o := runRecoverCase(t, sched, layers, map[int]int{2: 1}, opts)
	for _, r := range []int{0, 1, 3} {
		if err := o.errs[r]; err != nil {
			t.Errorf("survivor rank %d failed: %v", r, err)
		}
		rep := o.reports[r]
		if rep == nil {
			t.Fatalf("survivor rank %d has no report", r)
		}
		if !rep.Degraded {
			t.Errorf("rank %d not flagged Degraded with a zero recovery budget", r)
		}
		if rep.Recovered {
			t.Errorf("rank %d flagged Recovered without certification", r)
		}
	}
	if o.final == nil {
		t.Fatal("fallback produced no image on the root")
	}
	// Rank 1 still rebuilt rank 2's layer, so the pixels are in fact
	// complete — only the certification is missing.
	if !raster.Equal(o.final, want) {
		t.Fatalf("fallback-with-replica image differs: maxdiff=%d", raster.MaxDiff(o.final, want))
	}
}

// TestRecoverRequiresDeadline: the policy is deadline-driven; without a
// RecvTimeout it must refuse to run rather than hang on the first death.
func TestRecoverRequiresDeadline(t *testing.T) {
	sched, err := schedule.BinarySwap(4)
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := chaosLayers(35, sched.P)
	o := runRecoverCase(t, sched, layers, nil, Options{OnMissing: Recover})
	for r, err := range o.errs {
		if err == nil {
			t.Errorf("rank %d accepted Recover without a RecvTimeout", r)
		}
	}
}

// TestRecoverRebuildsOnlyTheDead pins where a dead layer comes from: a
// healthy Recover frame ships nothing beyond a fail-fast frame's traffic but
// the agreement, and never calls Rebuild; a death costs one Rebuild of the
// dead layer per re-executed epoch, on the survivor Repair stages it at
// alone; and a rebuilt layer of the wrong size is an error naming it, not a
// panic.
func TestRecoverRebuildsOnlyTheDead(t *testing.T) {
	const die = 2
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(36, sched.P)
	_, owners, err := schedule.Repair(sched, []int{die})
	if err != nil {
		t.Fatal(err)
	}
	rebuilder := owners[die] // rank 1, the survivor in front of layer 2
	type call struct{ by, layer int }
	run := func(opts Options, dieAfter map[int]int, rebuild func(int) (*raster.Image, error)) (chaosOutcome, []call) {
		t.Helper()
		var mu sync.Mutex
		var calls []call
		out := chaosOutcome{reports: make([]*Report, sched.P), errs: make([]error, sched.P)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			inproc.Run(sched.P, func(inner comm.Comm) error {
				r := inner.Rank()
				defer func() {
					if p := recover(); p != nil {
						out.errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
					}
				}()
				o := opts
				o.Rebuild = func(l int) (*raster.Image, error) {
					mu.Lock()
					calls = append(calls, call{r, l})
					mu.Unlock()
					return rebuild(l)
				}
				ep := faulty.Wrap(inner, faulty.Plan{Seed: 41, DieAfterSends: dieAfter[r]})
				img, rep, err := Run(ep, sched, layers[r], o)
				out.reports[r], out.errs[r] = rep, err
				if img != nil && r == 0 {
					out.final = img
				}
				return nil
			})
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("rebuild case HUNG")
		}
		return out, calls
	}

	t.Run("healthy", func(t *testing.T) {
		failFast, _ := run(Options{Codec: codec.Raw{}, RecvTimeout: 250 * time.Millisecond}, nil, layerOf(layers))
		o, calls := run(recoverOptions(codec.Raw{}), nil, layerOf(layers))
		if len(calls) != 0 {
			t.Errorf("a healthy frame called Rebuild: %v", calls)
		}
		if o.final == nil || !raster.Equal(o.final, want) {
			t.Fatal("healthy recover frame did not reproduce the golden image")
		}
		for r := range layers {
			if failFast.errs[r] != nil || o.errs[r] != nil {
				t.Fatalf("rank %d: fail-fast error %v, recover error %v", r, failFast.errs[r], o.errs[r])
			}
			extra := o.reports[r].Comm.BytesSent - failFast.reports[r].Comm.BytesSent
			if quarter := int64(len(layers[r].Pix) / 4); extra >= quarter {
				t.Errorf("rank %d sent %d bytes more than under fail-fast, want fewer than %d (a quarter of its sub-image)",
					r, extra, quarter)
			}
		}
	})

	t.Run("one-death", func(t *testing.T) {
		o, calls := run(recoverOptions(codec.Raw{}), map[int]int{die: 1}, layerOf(layers))
		for r, err := range o.errs {
			if r != die && err != nil {
				t.Fatalf("survivor rank %d failed: %v", r, err)
			}
		}
		if o.final == nil || !raster.Equal(o.final, want) {
			t.Fatal("recovered image differs from the fault-free golden")
		}
		rep := o.reports[0]
		if !rep.Recovered || rep.RecoveryEpochs < 1 {
			t.Fatalf("root report %+v, want Recovered after at least one epoch", rep)
		}
		if len(calls) != rep.RecoveryEpochs {
			t.Errorf("Rebuild called %d times (%v), want once per re-executed epoch (%d)", len(calls), calls, rep.RecoveryEpochs)
		}
		for _, c := range calls {
			if c != (call{rebuilder, die}) {
				t.Errorf("rank %d rebuilt layer %d, want only rank %d rebuilding layer %d", c.by, c.layer, rebuilder, die)
			}
		}
	})

	t.Run("wrong-size", func(t *testing.T) {
		half := func(int) (*raster.Image, error) { return raster.New(16, 32), nil }
		o, _ := run(recoverOptions(codec.Raw{}), map[int]int{die: 1}, half)
		for _, err := range o.errs {
			if err != nil && strings.Contains(err.Error(), "panicked") {
				t.Fatal(err)
			}
		}
		if err := o.errs[rebuilder]; err == nil || !strings.Contains(err.Error(), fmt.Sprintf("layer %d", die)) {
			t.Fatalf("rank %d error = %v, want one naming layer %d", rebuilder, err, die)
		}
	})
}

// lazySource renders a tile of its image on the first WaitTile for it,
// copying the tile from the finished layer; every tile but the first waits
// for gate to close first. A tile nobody waits for is never rendered.
type lazySource struct {
	img, layer *raster.Image
	gate       <-chan struct{}
	once       []sync.Once
}

func (s *lazySource) WaitTile(tile int, span raster.Span) error {
	if tile > 0 {
		<-s.gate
	}
	s.once[tile].Do(func() { copy(s.img.SpanBytes(span), s.layer.SpanBytes(span)) })
	return nil
}

// TestRecoverWaitsForTheStreamingRender: a pipelined epoch 0 waits for the
// streaming render tile by tile and stops claiming tiles when it aborts, so
// the synchronous re-execution that follows a death must wait for the rest
// of the render before it stages the local image. Each survivor renders its
// later tiles only once the victim has died and only when asked for them,
// with one tile in flight; a re-execution that does not wait composites
// blank tiles (and, with a render goroutine, races with it).
func TestRecoverWaitsForTheStreamingRender(t *testing.T) {
	const die = 2
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(37, sched.P)
	died := make(chan struct{})
	var final *raster.Image
	reps := make([]*Report, sched.P)
	errs := make([]error, sched.P)
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(sched.P, func(inner comm.Comm) error {
			r := inner.Rank()
			opts := recoverOptions(codec.Raw{})
			opts.Rebuild = layerOf(layers)
			opts.Pipeline = PipelineConfig{Enabled: true, Window: 1}
			local := layers[r]
			if r == die {
				defer close(died)
			} else {
				local = raster.New(layers[r].W, layers[r].H)
				opts.Pipeline.Source = &lazySource{img: local, layer: layers[r], gate: died, once: make([]sync.Once, sched.Tiles)}
			}
			ep := faulty.Wrap(inner, faulty.Plan{Seed: 41, DieAfterSends: map[int]int{die: 1}[r]})
			img, rep, err := Run(ep, sched, local, opts)
			reps[r], errs[r] = rep, err
			if r == 0 {
				final = img
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("streaming recover case HUNG")
	}
	for r, err := range errs {
		if r != die && err != nil {
			t.Fatalf("survivor rank %d failed: %v", r, err)
		}
	}
	if final == nil || !raster.Equal(final, want) {
		t.Fatal("recovered image differs from the fault-free golden")
	}
	if rep := reps[0]; !rep.Recovered || rep.Degraded {
		t.Fatalf("root report Recovered=%v Degraded=%v, want a recovered frame", rep.Recovered, rep.Degraded)
	}
}
