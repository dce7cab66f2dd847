// The per-tile pipelined executor behind Options.Pipeline: the step loop
// run per tile under a bounded window.
//
// Where the synchronous executor (runSync) finishes step k on every rank
// before any rank starts k+1, the pipelined executor advances every tile
// through stage→send→recv→merge→gather on its own — each tile worker running
// the same step loop (stepRun.run) over the tile's plan and store, taking its
// tile's messages from the fabric like every other caller (fabricInbox):
//
//   - A bounded worker pool (the in-flight window) claims tiles from an
//     atomic counter, so all ranks claim tiles in the same increasing
//     order. That shared order is the liveness invariant: the minimal
//     unfinished tile is claimed (or done) on every rank, its restricted
//     sub-schedule is exactly the synchronous schedule of that tile, and
//     eager-send buffering completes it — so any window >= 1 makes
//     progress and the pipeline cannot deadlock.
//   - A worker receives exactly its tile's keys — tags carry the tile, so
//     the key sets of concurrent workers are disjoint — and a message for a
//     later step or an unclaimed tile waits in the mailbox. The workers share
//     the run's stop channel (a blocked receive polls it) and its one
//     deadline authority (steps.go).
//   - Completed tiles stream to the gather root at once; the root runs the
//     gather loop (collect) over one key per tile and holder next to its
//     workers, which copy their own finished tiles straight into the frame,
//     and fires the progressive-delivery callback the moment a tile's last
//     contribution lands.
//
// Sends go through a shared mutex (encode stays parallel in the workers;
// only the fabric hand-off is serialized), and messages carry the same
// epoch-scoped tags as the synchronous path, so the per-tile interleaving
// changes nothing about what is sent — only when. The differential tests
// exploit exactly that: pipelined output must be byte-identical to the
// synchronous oracle under any delivery order.
package compositor

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// pipePollChunk bounds one blocking receive of an inbox with a stop channel,
// so it can observe the stop and accumulate the configured RecvTimeout as
// silence across chunks without a fabric-level interrupt.
const pipePollChunk = 20 * time.Millisecond

// errPipeStop is the internal stop signal of a run's goroutines: the real
// cause (fatal error or recovery abort), if any, is already recorded on the
// run.
var errPipeStop = errors.New("compositor: pipeline stopped")

// Tile states for the stall dump, advanced by the owning worker.
const (
	stateUnclaimed  int32 = 0
	stateRenderWait int32 = 1
	stateStepBase   int32 = 2 // + 0-based step index
)

// lockedComm serializes Send across the pipelined executor's goroutines
// (workers, abort notices) without auditing every fabric for
// concurrent-send safety. Receives pass through unlocked: the fabrics serve
// concurrent receivers (comm.Comm), and a blocked one must not hold up the
// senders.
type lockedComm struct {
	comm.Comm
	mu sync.Mutex
}

func (lc *lockedComm) Send(to, tag int, payload []byte) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.Comm.Send(to, tag, payload)
}

// SendCtx forwards the trace context to the wrapped fabric under the same
// send lock, so causal tracing survives the serialization wrapper.
func (lc *lockedComm) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return comm.SendCtx(lc.Comm, to, tag, payload, tc)
}

// pipeRun is the shared state of one pipelined composition epoch.
type pipeRun struct {
	c       comm.Comm // lockedComm over the caller's fabric
	sched   *schedule.Schedule
	local   *raster.Image
	opts    Options
	cdc     codec.Codec
	tel     *telemetry.Recorder
	rep     *Report // the workers and the gather merge their shards under mu
	me      int
	root    int
	epoch   int
	pol     failPolicy
	notices []comm.MsgKey

	plans  [][]schedule.TileStep
	spans  []raster.Span
	window int

	nextTile    atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	states      []atomic.Int32
	stepOnce    []sync.Once

	// What the run's inboxes share: the stop signal and the deadline authority.
	cancel     chan struct{}
	cancelOnce sync.Once
	gate       deadlineGate

	// The frame under assembly, on the gather root: per tile, the holders
	// still to contribute and the pixels landed so far, under mu.
	holders  [][]int
	out      *raster.Image
	owed     []int
	covered  []int
	fired    int
	partials *partialPump

	mu  sync.Mutex
	err error // why the run ended early: see fail
	wg  sync.WaitGroup

	t0 time.Time // run start; OnPartial delivery latency is measured from it
}

// newPipeRun builds the run state: the per-tile plans and, on the gather
// root, the frame and its per-tile contribution tables from a block-flow
// simulation of the schedule.
func newPipeRun(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options,
	cdc codec.Codec, rep *Report, pol failPolicy, at attempt) (*pipeRun, error) {
	holders, err := sched.FinalTileHolders()
	if err != nil {
		return nil, fmt.Errorf("compositor: %w", err)
	}
	me := c.Rank()
	pr := &pipeRun{
		c:       &lockedComm{Comm: c},
		sched:   sched,
		local:   local,
		opts:    opts,
		cdc:     cdc,
		tel:     opts.Telemetry,
		rep:     rep,
		me:      me,
		root:    opts.GatherRoot,
		epoch:   at.epoch,
		pol:     pol,
		notices: at.notices,
		plans:   sched.TilePlans(me),
		spans:   sched.TileSpans(local.NPixels()),
		window:  opts.Pipeline.window(sched.Tiles),
		states:  make([]atomic.Int32, sched.Tiles),
		cancel:  make(chan struct{}),
	}
	if opts.OnStep != nil {
		pr.stepOnce = make([]sync.Once, len(sched.Steps))
	}
	if me == pr.root {
		pr.holders = holders
		pr.out = gatherRaster(dst, local.W, local.H)
		counts := make([]int, 2*sched.Tiles)
		pr.owed, pr.covered = counts[:sched.Tiles], counts[sched.Tiles:]
		for t, hs := range holders {
			pr.owed[t] = len(hs)
		}
		pr.partials = newPartialPump(opts.Pipeline.OnPartial, sched.Tiles)
	}
	return pr, nil
}

// inbox is the message source of one goroutine of the run: the fabric, with
// the run's stop signal and deadline authority attached.
func (pr *pipeRun) inbox(rep *Report, scr *runScratch) fabricInbox {
	in := newFabricInbox(pr.c, &pr.opts, pr.pol, rep, scr, pr.notices)
	in.stop, in.gate = pr.cancel, &pr.gate
	return in
}

// run executes the pipeline: the worker window and the gather (root), then
// joins everything — including after a failure or recovery abort, so the
// in-flight window is fully drained before the caller moves on (the recovery
// barrier depends on this quiescence).
func (pr *pipeRun) run() {
	pr.t0 = time.Now()
	pr.wg.Add(pr.window)
	for i := 0; i < pr.window; i++ {
		go pr.workerLoop()
	}
	if pr.me == pr.root {
		pr.wg.Add(1)
		go pr.gatherTiles()
	}
	pr.wg.Wait()
}

// stop ends every goroutine of the run (idempotent).
func (pr *pipeRun) stop() {
	pr.cancelOnce.Do(func() { close(pr.cancel) })
}

func (pr *pipeRun) cancelled() bool {
	select {
	case <-pr.cancel:
		return true
	default:
		return false
	}
}

// fail ends the run for err and stops every goroutine of it: the first
// fatal error is the run's, errAborted — a Recover attempt abandoned because
// the policy ruled so (and sent its FAILED notice) or a peer's notice arrived
// — stands only until a fatal one comes, and the stop signal itself is no
// cause. The caller's join then drains the in-flight window before anything
// else (the membership agreement, after an abort) runs. It returns
// errPipeStop so workers can `return pr.fail(err)`.
func (pr *pipeRun) fail(err error) error {
	if !errors.Is(err, errPipeStop) {
		pr.mu.Lock()
		if pr.err == nil || errors.Is(pr.err, errAborted) {
			pr.err = err
		}
		pr.mu.Unlock()
		pr.stop()
	}
	return errPipeStop
}

// stalled dresses a fail-fast receive failure — a deadline, or a peer the
// fabric reports dead — as the post-mortem the run fails with instead of
// hanging: the per-tile state dump, what the failing goroutine (the worker
// of the given tile; -1: the gather) was still waiting for, and the flight
// recorder's recent history. Any other error passes through.
func (pr *pipeRun) stalled(err error, tile int, pending map[comm.MsgKey]schedule.Transfer) error {
	if !comm.IsRecoverable(err) {
		return err
	}
	what := "pipeline stalled"
	if errors.Is(err, comm.ErrPeer) {
		what = "peer failed"
	}
	pr.tel.Flight(pr.me, telemetry.FlightStall, telemetry.StepNone, tile, -1, what)
	dump := pr.stateDump(tile, pending)
	if fd := pr.tel.FlightDump(); fd != "" {
		dump += "\n" + fd
	}
	return fmt.Errorf("compositor: %s: %w\n%s", what, err, dump)
}

// stateDump renders every tile's pipeline state, from the states the
// workers publish, plus the debts of the goroutine that gave up.
func (pr *pipeRun) stateDump(tile int, pending map[comm.MsgKey]schedule.Transfer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-tile states (rank %d, window %d, in flight %d):\n",
		pr.me, pr.window, pr.inFlight.Load())
	nsteps := len(pr.sched.Steps)
	for t := range pr.states {
		v := pr.states[t].Load()
		var name string
		switch {
		case v == stateUnclaimed:
			name = "unclaimed"
		case v == stateRenderWait:
			name = "awaiting render"
		case v == stateStepBase+int32(nsteps):
			name = "gather"
		case v == stateStepBase+int32(nsteps)+1:
			name = "done"
		default:
			name = fmt.Sprintf("step %d/%d", v-stateStepBase+1, nsteps)
		}
		fmt.Fprintf(&b, "  tile %d: %s", t, name)
		if t == tile && len(pending) > 0 {
			fmt.Fprintf(&b, ", awaiting %d message(s) from ranks %v", len(pending), sendersOf(pending))
		}
		b.WriteString("\n")
	}
	if tile < 0 && len(pending) > 0 {
		fmt.Fprintf(&b, "  gather: awaiting %d tile contribution(s) from ranks %v\n", len(pending), sendersOf(pending))
	}
	return strings.TrimRight(b.String(), "\n")
}

// workerLoop claims tiles in the globally shared increasing order and runs
// each through its full state machine. The claim order is load-bearing:
// see the package comment's liveness argument.
func (pr *pipeRun) workerLoop() {
	defer pr.wg.Done()
	// The worker's private state: its own scratch, its own report shard
	// (inside the scratch, so that it has a heap address at no allocation),
	// merged into the shared report when the worker exits, and its own
	// step-loop context, whose inbox names the tile it has claimed at each
	// step it enters.
	scr := newRunScratch()
	defer scr.release()
	scr.shard = Report{Rank: pr.me}
	defer pr.mergeWorkerReport(&scr.shard)
	w := &stepRun{c: pr.c, cdc: pr.cdc, rep: &scr.shard, tel: pr.tel, scr: scr, pol: pr.pol,
		epoch: pr.epoch, layers: pr.sched.P, in: pr.inbox(&scr.shard, scr)}
	defer w.in.il.release()
	t := 0
	w.in.onStep = func(si int) { pr.enterStep(t, si) }
	for {
		t = int(pr.nextTile.Add(1)) - 1
		if t >= pr.sched.Tiles || pr.cancelled() {
			break
		}
		n := pr.inFlight.Add(1)
		for {
			m := pr.maxInFlight.Load()
			if n <= m || pr.maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		err := pr.runTile(w, t)
		pr.inFlight.Add(-1)
		if err != nil {
			return
		}
	}
}

func (pr *pipeRun) mergeWorkerReport(wr *Report) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.rep.OverPixels += wr.OverPixels
	pr.rep.RawBytes += wr.RawBytes
	pr.rep.WireBytes += wr.WireBytes
	pr.rep.FinalBlocks += wr.FinalBlocks
	pr.rep.MissingTransfers += wr.MissingTransfers
	pr.rep.MissingLayerPix += wr.MissingLayerPix
	pr.rep.MissingGathers += wr.MissingGathers
	pr.rep.Degraded = pr.rep.Degraded || wr.Degraded
}

// enterStep records a tile entering a step and invokes the chaos seam the
// first time any tile does. Each worker passes steps in order within its
// tile, so first entries are still monotone across the run.
func (pr *pipeRun) enterStep(t, si int) {
	if pr.opts.OnStep != nil {
		pr.stepOnce[si].Do(func() { pr.opts.OnStep(si) })
	}
	pr.states[t].Store(stateStepBase + int32(si))
	pr.tel.Flight(pr.me, telemetry.FlightTile, si, t, -1, "step")
}

// runTile advances one tile through stage → step loop → completion →
// progressive gather. Any returned error is errPipeStop; real causes are
// recorded on the run.
func (pr *pipeRun) runTile(w *stepRun, t int) error {
	me, tel := pr.me, pr.tel
	claimed := time.Now()
	pr.states[t].Store(stateRenderWait)
	tel.Flight(me, telemetry.FlightTile, telemetry.StepNone, t, -1, "claimed")
	if src := pr.opts.Pipeline.Source; src != nil {
		if err := src.WaitTile(t, pr.spans[t]); err != nil {
			return pr.fail(fmt.Errorf("compositor: tile %d render: %w", t, err))
		}
	}
	defer tel.End(tel.Begin(me, telemetry.PhaseTile, telemetry.CatCompute, t))

	st := &w.scr.store
	st.RestageTile(me, pr.spans, pr.local, t)
	defer st.Release()
	if err := w.run(st, pr.plans[t], nil, nil); err != nil {
		return pr.fail(pr.stalled(err, t, w.scr.pending))
	}
	if err := pr.deliverTile(w, t, st); err != nil {
		return pr.fail(err)
	}
	pr.states[t].Store(stateStepBase + int32(len(pr.sched.Steps)) + 1)
	tel.Flight(me, telemetry.FlightTile, telemetry.StepNone, t, -1, "done")
	tel.Add(me, telemetry.CtrTilesDone, 1)
	tel.Observe(me, telemetry.HistTileLatency, time.Since(claimed))
	return nil
}

// deliverTile streams a completed tile to the gather root: the root's own
// workers copy it straight into the frame (tile spans are disjoint); remote
// ranks encode the tile's final blocks and send them under the tile-gather
// tag. The error is errAborted or fatal.
func (pr *pipeRun) deliverTile(w *stepRun, t int, st *fragstore.Store) error {
	pr.states[t].Store(stateStepBase + int32(len(pr.sched.Steps)))
	pr.tel.Flight(pr.me, telemetry.FlightTile, telemetry.StepNone, t, pr.root, "gather")
	if pr.root < 0 || st.Len() == 0 {
		return nil
	}
	if pr.me == pr.root {
		pr.landed(t, st.CopyInto(pr.out))
		return nil
	}
	gathered := pr.tel.Begin(pr.me, telemetry.PhaseGather, telemetry.CatNetwork, t)
	err := comm.SendCtx(pr.c, pr.root, tileGatherTag(pr.epoch, t), encodeFinalBlocks(w.scr, st),
		traceid.Context{Step: -1, Tile: t, Epoch: pr.epoch})
	pr.tel.End(gathered)
	if err != nil {
		err = fmt.Errorf("compositor: gather send: %w", err)
		err = pr.pol.rule(w.rep, true, evSendFailed, err, suspectsOf(err, pr.root))
	}
	return err
}

// gatherTiles is the gather root's receive half: the gather loop (collect)
// over one key per tile and remote holder, next to the root's own workers.
func (pr *pipeRun) gatherTiles() {
	defer pr.wg.Done()
	scr := newRunScratch()
	defer scr.release()
	scr.shard = Report{Rank: pr.me}
	defer pr.mergeWorkerReport(&scr.shard)
	in := pr.inbox(&scr.shard, scr)
	defer in.il.release()
	pending := scr.pending
	for t, hs := range pr.holders {
		for _, r := range hs {
			if r != pr.me {
				pending[comm.MsgKey{From: r, Tag: tileGatherTag(pr.epoch, t)}] =
					schedule.Transfer{From: r, Block: schedule.Block{Tile: t}}
			}
		}
	}
	if err := collect(&in, pr.out, pr.spans, pending, pr.landed); err != nil {
		pr.fail(pr.stalled(err, -1, pending))
	}
}

// landed accounts one contribution of n pixels to tile t of the frame and,
// when it was the tile's last and the tile is whole, fires the
// progressive-delivery callback — exactly once per completed tile, the
// monotonicity contract of OnPartial. A tile missing a contribution under
// compose-partial never fires; it appears only in the final image.
func (pr *pipeRun) landed(t, n int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.owed[t]--
	pr.covered[t] += n
	if pr.owed[t] == 0 && pr.covered[t] == pr.spans[t].Len() {
		pr.fired++
		pr.tel.Add(pr.me, telemetry.CtrPartialTiles, 1)
		pr.tel.Observe(pr.me, telemetry.HistPartialLatency, time.Since(pr.t0))
		pr.partials.publish(t, pr.spans[t], pr.out.SpanBytes(pr.spans[t]), pr.fired, len(pr.spans))
	}
}

// runPipelined executes one pipelined epoch under the given policy. The
// epoch-0 attempt of the Recover policy is one: it returns errAborted, after
// a quiescent drain, when the attempt must be retried synchronously over a
// repaired schedule.
func runPipelined(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options,
	cdc codec.Codec, rep *Report, pol failPolicy, at attempt) (*raster.Image, error) {
	pr, err := newPipeRun(c, sched, local, dst, opts, cdc, rep, pol, at)
	if err != nil {
		return nil, err
	}
	defer pr.partials.finish()
	pr.run()
	pr.tel.Add(pr.me, telemetry.CtrPipeInflightMax, pr.maxInFlight.Load())
	if errors.Is(pr.err, errAborted) {
		pr.tel.Flight(pr.me, telemetry.FlightEpoch, telemetry.StepNone, -1, -1, "attempt aborted")
	}
	if pr.err != nil || pr.me != pr.root {
		return nil, pr.err
	}
	covered := 0
	for _, n := range pr.covered {
		covered += n
	}
	if err := gatherShort(pr.pol, rep, covered, local.NPixels()); err != nil {
		return nil, err
	}
	return pr.out, nil
}
