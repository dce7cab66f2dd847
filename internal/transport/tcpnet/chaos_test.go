package tcpnet_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/tcpnet"
)

// The session-layer chaos suite: sever a live TCP connection at an exact
// composition step and assert the run is indistinguishable from a
// fault-free one — byte-identical image, no degradation flag, zero
// recovery epochs. The reliable session must mask the cut entirely below
// the compositor's recovery protocol; only when the reconnect budget is
// exhausted may the failure surface, and then the recovery protocol must
// still deliver a complete image (the second line of defense).

// chaosLayers builds p random binary layers and the serial reference
// composite — exact for binary images under every codec.
func chaosLayers(seed int64, p int) ([]*raster.Image, *raster.Image) {
	rng := rand.New(rand.NewSource(seed))
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.RandomBinaryImage(rng, 32, 32, 0.5)
	}
	return layers, compose.SerialComposite(layers)
}

// startChaosMesh brings up a p-rank TCP mesh on pre-bound loopback
// listeners with a fast redial, applying mod per rank before Start.
func startChaosMesh(t *testing.T, p int, mod func(rank int, cfg *tcpnet.Config)) []*tcpnet.Endpoint {
	t.Helper()
	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*tcpnet.Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := tcpnet.Config{
				Rank: r, Addrs: addrs, Listener: lns[r],
				DialTimeout: 10 * time.Second,
			}
			if mod != nil {
				mod(r, &cfg)
			}
			eps[r], errs[r] = tcpnet.Start(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", r, err)
		}
	}
	return eps
}

// runComposition runs the schedule on every endpoint concurrently under a
// hard watchdog and returns rank 0's image plus per-rank reports/errors.
func runComposition(t *testing.T, eps []*tcpnet.Endpoint, sched *schedule.Schedule,
	layers []*raster.Image, optsFor func(rank int) compositor.Options) (*raster.Image, []*compositor.Report, []error) {
	t.Helper()
	p := len(eps)
	reports := make([]*compositor.Report, p)
	errs := make([]error, p)
	var final *raster.Image
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				img, rep, err := compositor.Run(eps[r], sched, layers[r], optsFor(r))
				reports[r] = rep
				errs[r] = err
				if r == 0 && img != nil {
					final = img
				}
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("chaos case HUNG: composition did not terminate within the watchdog")
	}
	return final, reports, errs
}

// chaosSchedules is the matrix of composition methods the cut sweep runs:
// rotate-tiling, binary-swap and pipeline at 4 ranks.
func chaosSchedules(t *testing.T) map[string]*schedule.Schedule {
	t.Helper()
	out := map[string]*schedule.Schedule{}
	var err error
	if out["rt-n"], err = schedule.NRT(4, 4); err != nil {
		t.Fatal(err)
	}
	if out["binary-swap"], err = schedule.BinarySwap(4); err != nil {
		t.Fatal(err)
	}
	if out["pipeline"], err = schedule.Pipeline(4); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChaosCutAnyConnectionAnyStep(t *testing.T) {
	// Sever every pair's connection, at every step, under every codec, for
	// every method: each run must finish with a byte-identical image and
	// zero visible recovery — the cut is the session layer's problem alone.
	codecs := map[string]codec.Codec{"raw": codec.Raw{}, "rle": codec.RLE{}, "trle": codec.TRLE{}}
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for schedName, sched := range chaosSchedules(t) {
		for codecName, cdc := range codecs {
			t.Run(fmt.Sprintf("%s/%s", schedName, codecName), func(t *testing.T) {
				steps := len(sched.Steps)
				for si := 0; si < steps; si++ {
					casePairs := pairs
					if testing.Short() {
						// One rotating pair per step keeps short mode brisk
						// while the full matrix still runs in CI.
						casePairs = pairs[si%len(pairs) : si%len(pairs)+1]
					}
					for _, pr := range casePairs {
						lo, hi := pr[0], pr[1]
						// Alternate which end cuts, so both the redialing
						// (higher-rank) and re-accepting (lower-rank) resume
						// paths are exercised.
						cutter, victim := hi, lo
						if (si+lo+hi)%2 == 1 {
							cutter, victim = lo, hi
						}
						layers, want := chaosLayers(int64(31+si), sched.P)
						eps := startChaosMesh(t, sched.P, nil)
						var once sync.Once
						var didCut atomic.Bool
						final, reports, errs := runComposition(t, eps, sched, layers, func(rank int) compositor.Options {
							opts := compositor.Options{
								Codec:       cdc,
								RecvTimeout: 20 * time.Second,
								OnMissing:   compositor.FailFast,
							}
							if rank == cutter {
								cutStep := si
								opts.OnStep = func(step int) {
									if step == cutStep {
										once.Do(func() { didCut.Store(eps[cutter].CutConn(victim)) })
									}
								}
							}
							return opts
						})
						for r, err := range errs {
							if err != nil {
								t.Fatalf("step %d cut %d-%d: rank %d: %v", si, lo, hi, r, err)
							}
						}
						if !didCut.Load() {
							t.Fatalf("step %d cut %d-%d: no live connection was severed", si, lo, hi)
						}
						for r, rep := range reports {
							if rep.Degraded || rep.Recovered || rep.RecoveryEpochs != 0 {
								t.Fatalf("step %d cut %d-%d: rank %d report shows visible recovery: %+v", si, lo, hi, r, rep)
							}
						}
						if final == nil {
							t.Fatalf("step %d cut %d-%d: no image at the gather root", si, lo, hi)
						}
						if !raster.Equal(final, want) {
							t.Fatalf("step %d cut %d-%d: image differs from fault-free golden (maxdiff=%d)",
								si, lo, hi, raster.MaxDiff(final, want))
						}
						for _, ep := range eps {
							ep.Close()
						}
					}
				}
			})
		}
	}
}

func TestChaosReconnectExhaustionFallsBackToRecovery(t *testing.T) {
	// When an outage is not transient — the peer's process is gone — the
	// session must exhaust its budget and surface the same PeerError a dead
	// rank always produced, so the Recover policy (agreement + rebuild)
	// still certifies a complete image. Sessions below, recovery above.
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(47, sched.P)
	eps := startChaosMesh(t, sched.P, func(rank int, cfg *tcpnet.Config) {
		cfg.Session = comm.SessionConfig{ReconnectTimeout: 500 * time.Millisecond, MaxReconnects: 2}
	})
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	victim := sched.P - 1
	var once sync.Once
	final, reports, errs := runComposition(t, eps, sched, layers, func(rank int) compositor.Options {
		opts := compositor.Options{
			Codec:       codec.TRLE{},
			RecvTimeout: 10 * time.Second,
			OnMissing:   compositor.Recover,
			Rebuild:     func(l int) (*raster.Image, error) { return layers[l], nil },
		}
		if rank == victim {
			opts.OnStep = func(step int) {
				if step == 1 {
					// Killed mid-composition: a survivor rebuilds the
					// victim's layer.
					once.Do(func() { eps[victim].Kill() })
				}
			}
		}
		return opts
	})
	if errs[victim] == nil {
		t.Error("killed rank completed without error")
	}
	for r := 0; r < victim; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor rank %d: %v", r, errs[r])
		}
		if !reports[r].Recovered {
			t.Errorf("survivor rank %d did not flag Recovered", r)
		}
	}
	if final == nil {
		t.Fatal("no image at the gather root after recovery")
	}
	if !raster.Equal(final, want) {
		t.Fatalf("recovered image differs from golden (maxdiff=%d)", raster.MaxDiff(final, want))
	}
}
