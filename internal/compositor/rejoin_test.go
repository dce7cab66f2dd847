package compositor

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/traceid"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The rejoin suite asserts the self-healing contract: a rank killed
// mid-frame is replaced by a spare that takes its own layer, the healed mesh
// commits the byte-identical fault-free image at full capacity (Rejoined,
// never Recovered/Degraded), and a spare that dies in its first epoch
// leaves the survivors to recover without it.

// errEpochKill is the injected post-rejoin death: a deterministic,
// timing-independent kill keyed to the recovery epoch carried in bits 56+
// of every non-negative composition tag.
var errEpochKill = errors.New("rejoin test: endpoint killed at epoch threshold")

// epochKiller wraps a comm endpoint and dies the first time it sends
// composition traffic (a non-negative tag) at or above the given epoch —
// the deterministic way to kill a rank "after the rejoin", since hello
// rebroadcast counts make send-counting nondeterministic.
type epochKiller struct {
	inner comm.Comm
	epoch int
	dead  bool
}

func (k *epochKiller) Rank() int { return k.inner.Rank() }
func (k *epochKiller) Size() int { return k.inner.Size() }

func (k *epochKiller) Send(to, tag int, payload []byte) error {
	return k.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

func (k *epochKiller) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	if !k.dead && tag >= 0 && tag>>56 >= k.epoch {
		k.dead = true
	}
	if k.dead {
		return errEpochKill
	}
	return k.inner.SendCtx(to, tag, payload, tc)
}

func (k *epochKiller) Recv(from, tag int) ([]byte, error) {
	if k.dead {
		return nil, errEpochKill
	}
	return k.inner.Recv(from, tag)
}

func (k *epochKiller) RecvAny(keys []comm.MsgKey, deadline time.Time) (int, int, []byte, error) {
	if k.dead {
		return 0, 0, nil, errEpochKill
	}
	return k.inner.RecvAny(keys, deadline)
}

func (k *epochKiller) Counters() comm.Counters { return k.inner.Counters() }
func (k *epochKiller) Close() error            { return k.inner.Close() }

// spareSpec is one standby incarnation queued for a rank slot. killEpoch > 0
// wraps the spare in an epochKiller so it dies on its first composition send
// at or above that epoch — the repeated-death scenario. wrap, when set,
// wraps its endpoint outermost; afterRoot starts it only once rank 0's Run
// has returned.
type spareSpec struct {
	killEpoch int
	wrap      func(comm.Comm) comm.Comm
	afterRoot bool
}

type rejoinOutcome struct {
	final     *raster.Image
	reports   []*Report // first (member) incarnation per rank
	errs      []error
	spareReps map[int][]*Report // per rank slot, in launch order
	spareErrs map[int][]error
}

// runRejoinCase runs the schedule on a manually-managed fabric so dead rank
// slots can be reattached: each rank's goroutine runs the member incarnation
// and then, when it returns, launches the queued spares for that slot in
// order. dieAfter kills members by send count (1 = right after the first
// block send); epochKill kills members at an epoch threshold (for
// post-rejoin deaths). Members and spares rebuild from layers unless
// opts brings its own Rebuild.
func runRejoinCase(t *testing.T, sched *schedule.Schedule, layers []*raster.Image,
	dieAfter map[int]int, epochKill map[int]int, spares map[int][]spareSpec, opts Options) rejoinOutcome {
	t.Helper()
	if opts.Rebuild == nil {
		opts.Rebuild = layerOf(layers)
	}
	p := sched.P
	out := rejoinOutcome{
		reports:   make([]*Report, p),
		errs:      make([]error, p),
		spareReps: map[int][]*Report{},
		spareErrs: map[int][]error{},
	}
	for r, ss := range spares {
		out.spareReps[r] = make([]*Report, len(ss))
		out.spareErrs[r] = make([]error, len(ss))
	}
	f := inproc.New(p)
	rootDone := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := f.Endpoint(r)
			var c comm.Comm = faulty.Wrap(ep, faulty.Plan{Seed: 41, DieAfterSends: dieAfter[r]})
			if ke := epochKill[r]; ke > 0 {
				c = &epochKiller{inner: c, epoch: ke}
			}
			img, rep, err := Run(c, sched, layers[r], opts)
			ep.Close()
			out.reports[r] = rep
			out.errs[r] = err
			if img != nil && r == 0 {
				out.final = img
			}
			if r == 0 {
				close(rootDone)
			}
			for i, sp := range spares[r] {
				if sp.afterRoot {
					<-rootDone
				}
				sep := f.Reattach(r)
				// The members speak through the faulty framing layer (CRC
				// trailers); the spare must too, or its hellos are discarded
				// as corrupt frames.
				var sc comm.Comm = faulty.Wrap(sep, faulty.Plan{Seed: 41})
				if sp.killEpoch > 0 {
					sc = &epochKiller{inner: sc, epoch: sp.killEpoch}
				}
				if sp.wrap != nil {
					sc = sp.wrap(sc)
				}
				simg, srep, serr := RunSpare(sc, sched, opts)
				sep.Close()
				out.spareReps[r][i] = srep
				out.spareErrs[r][i] = serr
				if simg != nil && r == 0 {
					out.final = simg
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("rejoin case HUNG: schedule did not terminate within the watchdog")
	}
	return out
}

// layerOf is the Rebuild of a test's fixed layers.
func layerOf(layers []*raster.Image) func(int) (*raster.Image, error) {
	return func(r int) (*raster.Image, error) { return layers[r], nil }
}

func rejoinOptions(cdc codec.Codec) Options {
	o := recoverOptions(cdc)
	o.RejoinTimeout = 10 * time.Second
	return o
}

// assertHealedRun asserts the headline invariant on a fully healed run: the
// root's image is byte-identical to the fault-free golden, and every
// survivor committed at full capacity — Rejoined, not Recovered, never
// Degraded, never evicted.
func assertHealedRun(t *testing.T, o rejoinOutcome, want *raster.Image, survivors []int, wantRejoins int) {
	t.Helper()
	for _, r := range survivors {
		if err := o.errs[r]; err != nil {
			t.Errorf("survivor rank %d failed: %v", r, err)
			continue
		}
		rep := o.reports[r]
		if rep == nil {
			t.Errorf("survivor rank %d has no report", r)
			continue
		}
		if rep.Degraded {
			t.Errorf("rank %d flagged Degraded on a healed run", r)
		}
		if rep.Recovered {
			t.Errorf("rank %d flagged Recovered on a run that healed to full capacity", r)
		}
		if !rep.Rejoined {
			t.Errorf("rank %d did not flag Rejoined", r)
		}
		if rep.RejoinEpochs != wantRejoins {
			t.Errorf("rank %d RejoinEpochs = %d, want %d", r, rep.RejoinEpochs, wantRejoins)
		}
	}
	if o.final == nil {
		t.Fatal("no final image on the root")
	}
	if !raster.Equal(o.final, want) {
		t.Fatalf("healed image differs from fault-free golden: maxdiff=%d", raster.MaxDiff(o.final, want))
	}
}

// TestRejoinSingleDeath: one rank killed after its first block send, a spare
// queued for the slot — the run must heal and commit the byte-identical
// fault-free image, across every method and every wire codec.
func TestRejoinSingleDeath(t *testing.T) {
	codecs := []string{"raw", "rle", "trle"}
	for name, sched := range chaosSchedules(t) {
		for ci, cname := range codecs {
			die := 1 + ci%(sched.P-1)
			t.Run(fmt.Sprintf("%s/%s/kill%d", name, cname, die), func(t *testing.T) {
				t.Parallel()
				cdc, err := codec.ByName(cname)
				if err != nil {
					t.Fatal(err)
				}
				layers, want := chaosLayers(51, sched.P)
				o := runRejoinCase(t, sched, layers,
					map[int]int{die: 1}, nil,
					map[int][]spareSpec{die: {{}}},
					rejoinOptions(cdc))
				if err := o.errs[die]; err == nil || !errors.Is(err, faulty.ErrDead) {
					t.Errorf("dead rank error = %v, want ErrDead", err)
				}
				if err := o.spareErrs[die][0]; err != nil {
					t.Fatalf("spare for rank %d failed: %v", die, err)
				}
				srep := o.spareReps[die][0]
				if srep == nil || !srep.Rejoined || len(srep.RejoinedRanks) != 1 || srep.RejoinedRanks[0] != die {
					t.Errorf("spare report = %+v, want Rejoined with RejoinedRanks [%d]", srep, die)
				}
				var survivors []int
				for r := 0; r < sched.P; r++ {
					if r != die {
						survivors = append(survivors, r)
					}
				}
				assertHealedRun(t, o, want, survivors, 1)
				for _, r := range survivors {
					if rep := o.reports[r]; rep != nil && (len(rep.RejoinedRanks) != 1 || rep.RejoinedRanks[0] != die) {
						t.Errorf("rank %d RejoinedRanks = %v, want [%d]", r, rep.RejoinedRanks, die)
					}
				}
			})
		}
	}
}

// TestRejoinThenBuddyDeath is the headline chaos scenario: kill rank 2, let
// its spare rejoin, then kill rank 3 — rank 2's neighbour behind it; rank 1,
// in front, rebuilds rank 2's layer while it is dead — and let a spare
// rejoin that slot too. The frame must still commit
// byte-identical at full capacity with zero false evictions, and with
// MaxRecoveries=1 the run only succeeds because a successful rejoin resets
// the recovery budget.
func TestRejoinThenBuddyDeath(t *testing.T) {
	for _, maxRec := range []int{0, 1} { // 0 = default budget
		t.Run(fmt.Sprintf("maxrec=%d", maxRec), func(t *testing.T) {
			t.Parallel()
			sched, err := schedule.NRT(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			layers, want := chaosLayers(52, sched.P)
			opts := rejoinOptions(codec.TRLE{})
			opts.MaxRecoveries = maxRec
			o := runRejoinCase(t, sched, layers,
				map[int]int{2: 1}, // rank 2 dies right after its first block send
				map[int]int{3: 2}, // rank 3 dies on its first post-rejoin epoch
				map[int][]spareSpec{2: {{}}, 3: {{}}},
				opts)
			if err := o.errs[2]; err == nil || !errors.Is(err, faulty.ErrDead) {
				t.Errorf("rank 2 error = %v, want ErrDead", err)
			}
			if err := o.errs[3]; err == nil || !errors.Is(err, errEpochKill) {
				t.Errorf("rank 3 error = %v, want errEpochKill", err)
			}
			for _, r := range []int{2, 3} {
				if err := o.spareErrs[r][0]; err != nil {
					t.Fatalf("spare for rank %d failed: %v", r, err)
				}
			}
			assertHealedRun(t, o, want, []int{0, 1}, 2)
		})
	}
}

// TestRejoinedSpareServesItsWard: rank 2 dies and its spare rejoins, then
// rank 3 — the spare's ward — dies with no spare of its own. The survivors
// must recover rank 3's layer from the ward layer the spare rendered itself:
// Recovered, never Degraded, and byte-identical.
func TestRejoinedSpareServesItsWard(t *testing.T) {
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(58, sched.P)
	opts := rejoinOptions(codec.TRLE{})
	opts.RejoinTimeout = 3 * time.Second // the spare's admission window
	o := runRejoinCase(t, sched, layers,
		map[int]int{2: 1}, // rank 2 dies right after its replica ships
		map[int]int{3: 2}, // rank 3 dies on its first post-rejoin epoch
		map[int][]spareSpec{2: {{}}},
		opts)
	if err := o.errs[3]; !errors.Is(err, errEpochKill) {
		t.Errorf("rank 3 error = %v, want errEpochKill", err)
	}
	if err := o.spareErrs[2][0]; err != nil {
		t.Fatalf("spare for rank 2 failed: %v", err)
	}
	for _, rep := range []*Report{o.reports[0], o.reports[1], o.spareReps[2][0]} {
		if !rep.Rejoined || !rep.Recovered || rep.Degraded || !slices.Equal(rep.RecoveredRanks, []int{3}) {
			t.Errorf("rank %d report %+v, want Rejoined, then Recovered for rank 3, not Degraded", rep.Rank, rep)
		}
	}
	if o.final == nil || !raster.Equal(o.final, want) {
		t.Fatal("recovery from the spare's ward layer did not reproduce the golden image")
	}
}

// TestRejoinRepeatedDeathSameRank: the same logical rank dies, rejoins,
// dies again, and a second spare rejoins — across every schedule method and
// every wire codec, the healed frame must stay byte-identical to the
// fault-free oracle.
func TestRejoinRepeatedDeathSameRank(t *testing.T) {
	codecs := []string{"raw", "rle", "trle"}
	for name, sched := range chaosSchedules(t) {
		for ci, cname := range codecs {
			die := 1 + ci%(sched.P-1)
			t.Run(fmt.Sprintf("%s/%s/kill%d", name, cname, die), func(t *testing.T) {
				t.Parallel()
				cdc, err := codec.ByName(cname)
				if err != nil {
					t.Fatal(err)
				}
				layers, want := chaosLayers(53, sched.P)
				o := runRejoinCase(t, sched, layers,
					map[int]int{die: 1}, nil,
					// First spare dies on its first composition send after
					// rejoining; the second one lives.
					map[int][]spareSpec{die: {{killEpoch: 1}, {}}},
					rejoinOptions(cdc))
				if err := o.spareErrs[die][0]; err == nil || !errors.Is(err, errEpochKill) {
					t.Errorf("first spare error = %v, want errEpochKill", err)
				}
				if err := o.spareErrs[die][1]; err != nil {
					t.Fatalf("second spare failed: %v", err)
				}
				var survivors []int
				for r := 0; r < sched.P; r++ {
					if r != die {
						survivors = append(survivors, r)
					}
				}
				assertHealedRun(t, o, want, survivors, 2)
			})
		}
	}
}

// TestRejoinSpareDiesInItsFirstEpoch: the spare is admitted at the join
// epoch (the agreement's Advance, then the revive: epoch 2) and dies on its
// first send there. The survivors revived it in the same step, so the epoch
// fails on it like on any dead rank, and the next agreement evicts it
// again: each survivor reports Rejoined and then Recovered for the slot —
// still byte-identical, never Degraded.
func TestRejoinSpareDiesInItsFirstEpoch(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	die := 2
	layers, want := chaosLayers(54, sched.P)
	o := runRejoinCase(t, sched, layers,
		map[int]int{die: 1}, nil,
		map[int][]spareSpec{die: {{killEpoch: 2}}},
		rejoinOptions(codec.Raw{}))
	if err := o.spareErrs[die][0]; !errors.Is(err, errEpochKill) {
		t.Fatalf("spare error = %v, want errEpochKill", err)
	}
	for _, r := range []int{0, 1, 3} {
		if o.errs[r] != nil {
			t.Errorf("survivor rank %d failed: %v", r, o.errs[r])
			continue
		}
		rep := o.reports[r]
		if !rep.Rejoined || !rep.Recovered || rep.Degraded || !slices.Equal(rep.RecoveredRanks, []int{die}) {
			t.Errorf("rank %d report %+v, want Rejoined, then Recovered for rank %d, not Degraded", r, rep, die)
		}
	}
	if o.final == nil || !raster.Equal(o.final, want) {
		t.Fatal("survivors did not produce the byte-identical image after the spare died")
	}
}

// hellosOnlyTo drops a spare's JOIN-HELLOs to every rank but one.
type hellosOnlyTo struct {
	comm.Comm
	to int
}

func (h hellosOnlyTo) Send(to, tag int, payload []byte) error {
	if tag == comm.TagJoinHello && to != h.to {
		return nil
	}
	return h.Comm.Send(to, tag, payload)
}

// TestRejoinHelloHeardByOneSurvivor: the spare's hellos reach rank 1 alone,
// yet the agreement certifies its offer on every survivor: all of them
// revive the slot — rank 0, which never saw a hello, sends the ADMIT — and
// the frame heals to the golden image.
func TestRejoinHelloHeardByOneSurvivor(t *testing.T) {
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	die := 2
	layers, want := chaosLayers(56, sched.P)
	o := runRejoinCase(t, sched, layers,
		map[int]int{die: 1}, nil,
		map[int][]spareSpec{die: {{wrap: func(c comm.Comm) comm.Comm { return hellosOnlyTo{Comm: c, to: 1} }}}},
		rejoinOptions(codec.TRLE{}))
	if err := o.spareErrs[die][0]; err != nil {
		t.Fatalf("spare for rank %d failed: %v", die, err)
	}
	assertHealedRun(t, o, want, []int{0, 1, 3}, 1)
}

// TestRejoinLateHelloIsNotAdmitted: a spare that announces itself only after
// the frame's last agreement is not admitted in that frame. The survivors
// recover without it, and the spare's own window runs out.
func TestRejoinLateHelloIsNotAdmitted(t *testing.T) {
	sched, err := schedule.BinarySwap(4)
	if err != nil {
		t.Fatal(err)
	}
	die := 2
	layers, want := chaosLayers(57, sched.P)
	opts := rejoinOptions(codec.RLE{})
	opts.RejoinTimeout = time.Second
	o := runRejoinCase(t, sched, layers,
		map[int]int{die: 1}, nil,
		map[int][]spareSpec{die: {{afterRoot: true}}},
		opts)
	var te *RejoinTimeoutError
	if err := o.spareErrs[die][0]; !errors.As(err, &te) {
		t.Fatalf("late spare error = %v, want *RejoinTimeoutError", err)
	}
	for _, r := range []int{0, 1, 3} {
		if o.errs[r] != nil {
			t.Errorf("survivor rank %d failed: %v", r, o.errs[r])
			continue
		}
		if rep := o.reports[r]; !rep.Recovered || rep.Rejoined || rep.Degraded {
			t.Errorf("rank %d report %+v, want Recovered, not Rejoined", r, rep)
		}
	}
	if o.final == nil || !raster.Equal(o.final, want) {
		t.Fatal("recovery without the late spare did not reproduce the golden image")
	}
}

// TestRejoinTimeout asserts both halves of the bounded-window contract:
// without a spare the survivors fall back to ordinary recovery, and a spare
// facing a mesh that never admits it returns the typed *RejoinTimeoutError.
func TestRejoinTimeout(t *testing.T) {
	t.Run("no-spare-degrades-to-recovery", func(t *testing.T) {
		t.Parallel()
		sched, err := schedule.BinarySwap(4)
		if err != nil {
			t.Fatal(err)
		}
		layers, want := chaosLayers(55, sched.P)
		opts := rejoinOptions(codec.RLE{})
		o := runRecoverCase(t, sched, layers, map[int]int{2: 1}, opts)
		for _, r := range []int{0, 1, 3} {
			if o.errs[r] != nil {
				t.Errorf("survivor rank %d failed: %v", r, o.errs[r])
				continue
			}
			rep := o.reports[r]
			if !rep.Recovered || rep.Degraded || rep.Rejoined {
				t.Errorf("rank %d must fall back to plain recovery: %+v", r, rep)
			}
		}
		if o.final == nil || !raster.Equal(o.final, want) {
			t.Fatal("recovery without a spare did not reproduce the golden image")
		}
	})
	t.Run("unadmitted-spare-times-out", func(t *testing.T) {
		t.Parallel()
		sched, err := schedule.BinarySwap(4)
		if err != nil {
			t.Fatal(err)
		}
		f := inproc.New(sched.P)
		ep := f.Endpoint(2)
		defer ep.Close()
		opts := rejoinOptions(codec.Raw{})
		opts.RejoinTimeout = 400 * time.Millisecond
		opts.Rebuild = func(int) (*raster.Image, error) { return raster.New(4, 4), nil }
		_, _, err = RunSpare(ep, sched, opts)
		var te *RejoinTimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("RunSpare error = %v, want *RejoinTimeoutError", err)
		}
		if te.Timeout != opts.RejoinTimeout || len(te.Ranks) != 1 || te.Ranks[0] != 2 {
			t.Errorf("timeout error = %+v, want rank 2 at %v", te, opts.RejoinTimeout)
		}
	})
}
