// Package compositor executes a composition schedule on real image data
// over any comm.Comm fabric: it stages the local partial image into blocks,
// ships and receives blocks step by step, composites received fragments in
// depth order with the "over" operator, and finally gathers the fully
// composited blocks to a root rank.
//
// The same executor runs every method — binary-swap, parallel-pipelined,
// direct-send and both rotate-tiling variants — because the methods differ
// only in their schedules.
package compositor

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
	"rtcomp/internal/wire"
)

// Policy selects how a composition reacts to a missing contribution — a
// peer that died or a message that never beat the receive deadline.
type Policy int

const (
	// FailFast aborts the composition with a typed error naming the stall.
	FailFast Policy = iota
	// ComposePartial substitutes blank (fully transparent) data for the
	// missing contributions, finishes the composition, and flags the
	// result via Report.Degraded — the show-must-go-on configuration of an
	// interactive display wall.
	ComposePartial
	// Recover replicates every rank's initial sub-image to a deterministic
	// buddy before step 1, detects failures via deadlines and FAILED
	// notices, agrees on the dead set with the survivors, and re-executes
	// the composition over a repaired schedule — producing a complete,
	// pixel-exact image flagged Recovered instead of a degraded one.
	// Requires a positive RecvTimeout. When the recovery budget
	// (MaxRecoveries) is exhausted or a dead rank's replica died with its
	// buddy, it falls back to one compose-partial epoch and forces the
	// Degraded flag (the result was never certified complete).
	Recover
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail"
	case ComposePartial:
		return "partial"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy flag value: "fail"/"fail-fast",
// "partial"/"compose-partial" or "recover".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail", "fail-fast":
		return FailFast, nil
	case "partial", "compose-partial":
		return ComposePartial, nil
	case "recover":
		return Recover, nil
	}
	return FailFast, fmt.Errorf("compositor: unknown missing-data policy %q (want fail, partial or recover)", s)
}

// Options configures a composition run.
type Options struct {
	// Codec compresses block payloads on the wire; nil means raw.
	Codec codec.Codec
	// GatherRoot is the rank that assembles the final image. Set to a
	// negative value to skip the gather (each rank keeps its final blocks).
	GatherRoot int
	// RecvTimeout bounds every receive of the composition (per step and
	// per gathered rank). Zero waits forever — the lossless-fabric
	// configuration.
	RecvTimeout time.Duration
	// OnMissing selects the degradation policy when a receive deadline
	// elapses or a peer fails. It only takes effect with a non-zero
	// RecvTimeout or a fabric that reports peer failures.
	OnMissing Policy
	// MaxRecoveries bounds how many times the Recover policy re-executes
	// the composition after a failure agreement. Zero means the default
	// (DefaultMaxRecoveries); a negative value forbids re-execution, so
	// any failure goes straight to the compose-partial fallback.
	MaxRecoveries int
	// Telemetry records per-phase spans (encode/send/recv/decode/merge/
	// gather) and per-step byte counters for this run. Nil disables
	// recording — the default, and effectively free on the hot path.
	Telemetry *telemetry.Recorder
	// OnStep, when non-nil, is called with the 0-based step index as this
	// rank enters each composition step — the chaos-testing seam for
	// injecting faults at an exact position in the exchange. Under the
	// Recover policy it fires again for every re-executed epoch. Under the
	// pipelined executor it fires once per step, the first time any tile
	// enters that step.
	OnStep func(step int)
	// Pipeline selects and tunes the per-tile executor (pipeline.go: the
	// step loop run per tile under a bounded window); the zero value keeps
	// the bulk-synchronous run.
	// The configuration must match across all ranks of a run. Under the
	// Recover policy only the first (epoch-0) attempt is pipelined:
	// re-executions over repaired schedules run synchronously after the
	// in-flight window has drained at the recovery budget.
	Pipeline PipelineConfig
	// Health, when non-nil, accumulates gray-failure signals per peer —
	// deadline misses, session retransmits — and gates the
	// Recover policy's deadline escalation: a peer that is slow but still
	// delivering earns grace instead of a recovery epoch, until its score
	// is sustained past the escalation bar (see gray.Health).
	Health *gray.Health
	// RejoinTimeout, under the Recover policy, enables the self-healing
	// join path: after every membership change the survivors wait up to
	// this long for a spare rank (RunSpare) to announce itself before they
	// decide to keep recovering degraded. Zero disables rejoin entirely —
	// the pre-existing behavior. Must match across all ranks of a run.
	RejoinTimeout time.Duration
	// ScrubReplicas, under the Recover policy, runs the replica scrub
	// exchange after the buddy exchange: every holder re-hashes its ward
	// replicas against the merkle roots recorded at exchange time and
	// repairs silent corruption from the live copy (scrub_ok /
	// scrub_repaired counters). Must match across all ranks of a run.
	ScrubReplicas bool
	// hookReplicas, when non-nil, is called with this rank's ward replicas
	// right after the scrubber records their fingerprints — the test seam
	// for injecting the silent corruption the scrub pass must detect.
	hookReplicas func(rank int, replicas map[int]*raster.Image)
}

// Report summarises one rank's work during a composition.
type Report struct {
	Rank        int
	Comm        comm.Counters // traffic including the final gather
	OverPixels  int64         // pixels passed through the over kernel
	RawBytes    int64         // block payload bytes before compression
	WireBytes   int64         // block payload bytes as shipped: compressed, or raw where that is smaller
	FinalBlocks int           // final blocks this rank owned before gather

	// Degraded flags a compose-partial result that is missing
	// contributions; the counters below attribute the damage.
	Degraded         bool
	MissingTransfers int   // scheduled messages that never arrived (or failed to send)
	MissingLayerPix  int64 // pixels times absent ranks substituted as blank
	MissingGathers   int   // ranks whose final blocks never reached the gather root

	// Recovered flags a Recover-policy result that lost ranks mid-frame
	// and still certified a complete image from replicated sub-images.
	Recovered      bool
	RecoveryEpochs int   // composition epochs re-executed after agreement
	RecoveredRanks []int // dead ranks whose layers were recovered

	// Rejoined flags a run during which at least one dead rank slot was
	// re-admitted by the join protocol (so the frame committed at full
	// capacity; a fully healed run reports Recovered=false). On a spare
	// (RunSpare) it flags the successful verified state transfer.
	Rejoined      bool
	RejoinEpochs  int   // successful join rounds during the run
	RejoinedRanks []int // rank slots re-admitted by the join protocol
}

// resetDegradation clears the per-epoch damage tallies: they describe the
// image that is finally returned, so an aborted epoch's bookkeeping must
// not leak into the next attempt's report. The cumulative work counters
// (RawBytes, WireBytes, OverPixels) intentionally survive.
func (r *Report) resetDegradation() {
	r.Degraded = false
	r.MissingTransfers = 0
	r.MissingLayerPix = 0
	r.MissingGathers = 0
	r.FinalBlocks = 0
}

// Run executes the schedule for this rank's partial image. On the gather
// root it returns the assembled final image; on other ranks (or when the
// gather is disabled) the image result is nil. It is RunInto with a nil dst.
func Run(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options) (*raster.Image, *Report, error) {
	return RunInto(c, sched, local, nil, opts)
}

// RunInto is Run assembling the final image into dst: on the gather root a
// dst of local's size is cleared, receives the gather and is returned as the
// final image; any other dst, nil included, leaves the root a new raster.
// dst stays the caller's: the composition writes it only on the root and
// before RunInto returns, and keeps no reference to it. After an error its
// pixels are unspecified.
func RunInto(c comm.Comm, sched *schedule.Schedule, local, dst *raster.Image, opts Options) (*raster.Image, *Report, error) {
	if c.Size() != sched.P {
		return nil, nil, fmt.Errorf("compositor: communicator has %d ranks, schedule wants %d", c.Size(), sched.P)
	}
	if opts.GatherRoot >= sched.P {
		return nil, nil, fmt.Errorf("compositor: gather root %d out of range", opts.GatherRoot)
	}
	cdc := opts.Codec
	if cdc == nil {
		cdc = codec.Raw{}
	}
	if opts.OnMissing == Recover {
		return runRecover(c, sched, local, dst, opts, cdc)
	}
	rep := &Report{Rank: c.Rank()}
	pol := newFailPolicy(&opts, nil, c.Rank())
	var final *raster.Image
	var err error
	if opts.Pipeline.Enabled {
		final, err = runPipelined(c, sched, local, dst, opts, cdc, rep, pol, attempt{})
	} else {
		scr := newRunScratch()
		final, err = runSync(c, sched, local, dst, opts, cdc, rep, pol, attempt{}, scr)
		scr.release()
	}
	if err != nil {
		return nil, nil, err
	}
	finalizeReport(c, rep, opts.Telemetry)
	return final, rep, nil
}

// finalizeReport snapshots the fabric totals and publishes the run-level
// counters, so live /metrics and the rank-0 table see what Report sees. It
// runs once per composition, after the last epoch.
func finalizeReport(c comm.Comm, rep *Report, tel *telemetry.Recorder) {
	rep.Comm = c.Counters()
	me := rep.Rank
	tel.Add(me, telemetry.CtrCommMsgsSent, rep.Comm.MsgsSent)
	tel.Add(me, telemetry.CtrCommBytesSent, rep.Comm.BytesSent)
	tel.Add(me, telemetry.CtrCommMsgsRecv, rep.Comm.MsgsRecv)
	tel.Add(me, telemetry.CtrCommBytesRecv, rep.Comm.BytesRecv)
	tel.Add(me, telemetry.CtrMissingTransfers, int64(rep.MissingTransfers))
}

// Bounds on what a message may declare, far above any real run and low enough
// that arithmetic on the decoded values cannot overflow.
const (
	maxWireRank   = 1 << 20 // a rank, or one end of a rank range
	maxImageDim   = 1 << 20 // an image's width or height
	maxBlockLevel = 62      // halvings of a tile: 2^level is still an int
)

// tagFor packs (epoch, step, block) into a unique non-negative tag. Epochs
// occupy bits 56+, so they stay unique up to epoch 63 — far beyond any
// recovery budget.
func tagFor(epoch, step int, b schedule.Block) int {
	return epoch<<56 | ((step+1)&0xFFFF)<<40 | (b.Tile&0xFFFF)<<24 | (b.Level&0xFF)<<16 | (b.Index & 0xFFFF)
}

// tagGatherFinal is the epoch-0 tag of the final-block gather messages.
// Step tags always carry step+1 >= 1 in bits 40+, so any value below 2^40
// is free (the replica-exchange tag lives there too).
const tagGatherFinal = (1 << 39) + 0x6A74

// gatherTag scopes the final-block gather to a recovery epoch.
func gatherTag(epoch int) int { return epoch<<56 | tagGatherFinal }

// runScratch holds one rank's reusable buffers for a composition run. The
// step loop re-slices these instead of allocating per message, so after the
// first step warms them a steady-state step allocates nothing.
type runScratch struct {
	enc      []byte                            // assembled outgoing block message
	encFrags []fragstore.EncodedFragment       // parsed-but-undecoded fragment views
	keys     []comm.MsgKey                     // pending receive keys
	pending  map[comm.MsgKey]schedule.Transfer // pending transfers, cleared per step
	shard    Report                            // a pipelined worker's share of the run's report
	store    fragstore.Store                   // restaged per run or tile, released empty
}

// scratchPool recycles runScratch shells (struct, pending map, slice
// headers, the fragment store's tables) across runs and across the pipelined
// executor's workers. The pooled byte buffers inside go back to bufpool on
// release; the shell itself would otherwise be allocated once per worker per
// composition, which the allocation benchmarks count against every
// pipelined cell.
var scratchPool = sync.Pool{
	New: func() any { return &runScratch{pending: map[comm.MsgKey]schedule.Transfer{}} },
}

func newRunScratch() *runScratch {
	return scratchPool.Get().(*runScratch)
}

// reserveEnc returns an empty slice with at least `need` capacity for the
// outgoing-message buffer, drawing replacements from the pool so a fresh
// scratch warms up without append-growth churn. `need` is a pre-sizing hint,
// not a limit: append past it still works, it just reallocates.
func (scr *runScratch) reserveEnc(need int) []byte {
	if cap(scr.enc) < need {
		bufpool.Put(scr.enc[:0])
		scr.enc = bufpool.Get(need)[:0]
	}
	return scr.enc[:0]
}

// release returns the scratch's pooled buffers to bufpool and the scratch
// shell to its own pool; the scratch warms up again on next use. Call when
// a composition run completes — the caller must not touch scr afterwards.
func (scr *runScratch) release() {
	bufpool.Put(scr.enc[:0])
	scr.enc = nil
	scr.keys = scr.keys[:0]
	scr.encFrags = scr.encFrags[:0]
	clear(scr.pending)
	scratchPool.Put(scr)
}

// encBound is the most a fragment of rawLen pixel bytes occupies in a block
// message: codec.EncodeCapped ships at most the pixels themselves, and the
// envelope adds three uvarints.
func encBound(rawLen int) int { return rawLen + 3*binary.MaxVarintLen64 }

// messageBound is the buffer a block message carrying frags needs.
func messageBound(frags []fragstore.Fragment) int {
	need := binary.MaxVarintLen64
	for _, f := range frags {
		need += encBound(len(f.Data))
	}
	return need
}

// EncodeFragmentsAppend serialises a fragment list onto dst: uvarint(count),
// then per fragment uvarint(lo), uvarint(hi), uvarint(len(enc)), enc, where
// enc is the fragment's wire form under cdc (codec.EncodeCapped: never
// larger than the pixels). It also reports the raw and encoded payload
// sizes. Each fragment is encoded straight into the message, behind a
// length prefix reserved at the width of the raw length — the widest it can
// need — and patched once the size is known; when the prefix comes out
// narrower the (then small) encoding closes the gap. With messageBound
// bytes of capacity in dst nothing is allocated.
func EncodeFragmentsAppend(dst []byte, frags []fragstore.Fragment, cdc codec.Codec) (buf []byte, raw, wire int64) {
	buf = binary.AppendUvarint(dst, uint64(len(frags)))
	for _, f := range frags {
		buf = binary.AppendUvarint(buf, uint64(f.Rng.Lo))
		buf = binary.AppendUvarint(buf, uint64(f.Rng.Hi))
		lenAt := len(buf)
		buf = binary.AppendUvarint(buf, uint64(len(f.Data)))
		encAt := len(buf)
		buf = codec.EncodeCapped(buf, f.Data, cdc)
		n := len(buf) - encAt
		if at := lenAt + binary.PutUvarint(buf[lenAt:encAt], uint64(n)); at != encAt {
			copy(buf[at:], buf[encAt:])
			buf = buf[:at+n]
		}
		raw += int64(len(f.Data))
		wire += int64(n)
	}
	return buf, raw, wire
}

// send takes a block out of the store and ships it: the step loop's send
// half. The taken fragments recycle as soon as they are encoded.
func send(x *stepRun, st *fragstore.Store, step int, tr schedule.Transfer) error {
	c, cdc, rep, tel, scr := x.c, x.cdc, x.rep, x.tel, x.scr
	frags, err := st.Take(tr.Block)
	if err != nil {
		return err
	}
	enc := tel.Begin(rep.Rank, telemetry.PhaseEncode, telemetry.CatCompute, step)
	buf, raw, wire := EncodeFragmentsAppend(scr.reserveEnc(messageBound(frags)), frags, cdc)
	tel.End(enc)
	scr.enc = buf
	// The message holds a copy of the fragment data (append-style encoders
	// never alias their input), so the taken buffers recycle immediately.
	fragstore.ReleaseAll(frags)
	rep.RawBytes += raw
	rep.WireBytes += wire
	tel.AddStep(rep.Rank, step, telemetry.CtrMsgs, 1)
	tel.AddStep(rep.Rank, step, telemetry.CtrRawBytes, raw)
	tel.AddStep(rep.Rank, step, telemetry.CtrWireBytes, wire)
	sent := tel.Begin(rep.Rank, telemetry.PhaseSend, telemetry.CatNetwork, step)
	err = comm.SendCtx(c, tr.To, tagFor(x.epoch, step, tr.Block), buf,
		traceid.Context{Step: step, Tile: tr.Block.Tile, Epoch: x.epoch})
	tel.End(sent)
	return err
}

// parseEncodedFragments walks a block message's envelope — uvarint(count),
// then per fragment uvarint(lo), uvarint(hi), uvarint(len(enc)), enc —
// without decoding any pixels. The returned fragments alias payload, so the
// caller must not recycle payload until it is done with them. All failures
// wrap codec.ErrCorrupt.
func parseEncodedFragments(dst []fragstore.EncodedFragment, payload []byte) ([]fragstore.EncodedFragment, error) {
	r := wire.NewReader(payload)
	for n := r.Int(r.Len()); n > 0 && r.Err() == nil; n-- {
		rng := schedule.RankRange{Lo: r.Int(maxWireRank), Hi: r.Int(maxWireRank)}
		dst = append(dst, fragstore.EncodedFragment{Rng: rng, Enc: r.Block()})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("compositor: %w: block message: %v", codec.ErrCorrupt, err)
	}
	return dst, nil
}

// merge composites a received block message into the store, in depth order:
// the step loop's receive half. It consumes payload.
func merge(x *stepRun, st *fragstore.Store, step int, tr schedule.Transfer, payload []byte) error {
	cdc, rep, tel, scr := x.cdc, x.rep, x.tel, x.scr
	dec := tel.Begin(rep.Rank, telemetry.PhaseDecode, telemetry.CatCompute, step)
	incoming, err := parseEncodedFragments(scr.encFrags[:0], payload)
	tel.End(dec)
	if err != nil {
		bufpool.Put(payload)
		return fmt.Errorf("block %v from rank %d: %w", tr.Block, tr.From, err)
	}
	scr.encFrags = incoming[:0]
	merged := tel.Begin(rep.Rank, telemetry.PhaseMerge, telemetry.CatCompute, step)
	overPix, err := st.MergeEncoded(tr.Block, incoming, cdc)
	tel.End(merged)
	// MergeEncoded never retains views into the wire payload, so the
	// fabric's receive buffer recycles here — on the corrupt path too.
	bufpool.Put(payload)
	if err != nil {
		return fmt.Errorf("block %v from rank %d: %w", tr.Block, tr.From, err)
	}
	rep.OverPixels += overPix
	tel.AddStep(rep.Rank, step, telemetry.CtrOverPixels, overPix)
	return nil
}

// encodeFinalBlocks serialises a rank's final blocks for the gather:
// uvarint block count, then per block uvarint tile/level/index followed by
// the raw composited pixels. Payloads travel
// raw: they are dense after compositing, and the paper's composition-time
// figures exclude the gather as a common cost across all methods. The
// message is built in scr's pooled buffer, reserved at its full size.
func encodeFinalBlocks(scr *runScratch, st *fragstore.Store) []byte {
	need := binary.MaxVarintLen64
	for i := 0; i < st.Len(); i++ {
		_, frags := st.At(i)
		need += 3*binary.MaxVarintLen64 + len(frags[0].Data)
	}
	buf := binary.AppendUvarint(scr.reserveEnc(need), uint64(st.Len()))
	for i := 0; i < st.Len(); i++ {
		b, frags := st.At(i)
		buf = binary.AppendUvarint(buf, uint64(b.Tile))
		buf = binary.AppendUvarint(buf, uint64(b.Level))
		buf = binary.AppendUvarint(buf, uint64(b.Index))
		buf = append(buf, frags[0].Data...)
	}
	scr.enc = buf[:0:cap(buf)]
	return buf
}

// insertFinalBlocks parses one rank's gather payload into out and returns
// the pixels covered. A block is checked against the tiling before it is
// resolved to a span — the tile exists, the level is one a span can be halved
// to, the index is one of the level's — and inserted only once its pixels are
// all there, so a corrupt payload leaves out as the blocks before it made it.
// All failures wrap codec.ErrCorrupt.
func insertFinalBlocks(out *raster.Image, tiles []raster.Span, part []byte, from int) (int, error) {
	r := wire.NewReader(part)
	covered := 0
	for n := r.Int(r.Len()); n > 0; n-- {
		b := schedule.Block{Tile: r.Int(len(tiles) - 1), Level: r.Int(maxBlockLevel)}
		b.Index = r.Int(1<<b.Level - 1)
		if r.Err() != nil {
			break
		}
		span := b.Span(tiles)
		pix := r.Bytes(span.Len() * raster.BytesPerPixel)
		if r.Err() != nil {
			break
		}
		out.InsertSpan(span, pix)
		covered += span.Len()
	}
	if err := r.Done(); err != nil {
		return covered, fmt.Errorf("compositor: %w: gather payload from rank %d: %v", codec.ErrCorrupt, from, err)
	}
	return covered, nil
}
