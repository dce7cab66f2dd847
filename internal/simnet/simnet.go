// Package simnet is the deterministic virtual-time network simulator that
// stands in for the paper's SP2 when measuring composition time. It executes
// a composition schedule on real image data — so compression ratios and
// over volumes are the genuine ones — while advancing per-rank logical
// clocks under a linear cost model:
//
//   - sending a message occupies the sender's network engine for
//     Ts + wireBytes*TpPerByte seconds (startup plus transmission, the
//     paper's Ts and Tp);
//   - compositing occupies the receiver's compute engine for
//     pixels*ToPerPixel seconds (the paper's To);
//   - encoding and decoding occupy the compute engine at per-raw-byte
//     rates that depend on the codec.
//
// Each rank owns two engines (network-out and compute) that may overlap, and
// ranks are not barrier-synchronised between steps: a rank starts its next
// step as soon as its own work is done, exactly like the socket-based
// executor. The reported composition time is the largest rank clock at the
// end — the paper's notion of composition time.
package simnet

import (
	"fmt"
	"sort"

	"rtcomp/internal/codec"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// CodecCost is the per-raw-byte compute cost of a codec.
type CodecCost struct {
	EncPerByte float64
	DecPerByte float64
}

// Params is the machine model.
type Params struct {
	// Name labels the preset in reports.
	Name string
	// Ts is the per-message startup time in seconds.
	Ts float64
	// TpPerByte is the transmission time per wire byte in seconds.
	TpPerByte float64
	// ToPerPixel is the over-composite time per pixel in seconds.
	ToPerPixel float64
	// CodecCosts maps codec names to their compute costs; missing codecs
	// cost nothing (raw is always free).
	CodecCosts map[string]CodecCost
	// StepBarrier, when set, synchronises all ranks between steps —
	// modelling a bulk-synchronous implementation. Off by default.
	StepBarrier bool
	// SinglePort, when set, serialises incoming messages through a
	// receive engine (Ts + bytes*Tp each) before they become available —
	// the one-port network model. Off by default (infinite receive
	// bandwidth, the multi-port HPS-style assumption).
	SinglePort bool
	// RankSpeed optionally scales each rank's compute speed: a rank with
	// factor f takes f times as long for the same work (1.0 = nominal).
	// Nil means homogeneous ranks. Models stragglers.
	RankSpeed []float64
	// IncludeGather adds the final gather to rank 0 to the composition
	// time (one message per non-root rank carrying its final blocks). The
	// paper's figures exclude it as a cost common to all methods; this
	// switch lets that assumption be checked.
	IncludeGather bool
}

// PaperExample returns the paper's illustrative Section 2.3 constants:
// Ts = 0.005 s, Tp = 0.00004 s/byte, To = 0.0002 s/pixel. These produce the
// worked optimal-N examples of Equations (5) and (6). Codec costs are set
// to a quarter (TRLE) and a half (RLE) of To per byte, preserving the
// paper's claim that TRLE needs less computation than RLE.
func PaperExample() Params {
	return Params{
		Name:       "paper-example",
		Ts:         0.005,
		TpPerByte:  0.00004,
		ToPerPixel: 0.0002,
		CodecCosts: map[string]CodecCost{
			"trle": {EncPerByte: 0.00005, DecPerByte: 0.00005},
			"rle":  {EncPerByte: 0.0001, DecPerByte: 0.0001},
		},
	}
}

// SP2Calibrated returns constants of SP2-era magnitude: 0.5 ms message
// startup (MPL small-message latency), 25 MB/s effective point-to-point
// bandwidth through the High Performance Switch, 0.15 us per pixel for the
// over operation on a 66.7 MHz POWER2, and codec costs measured relative to
// the over kernel (TRLE cheaper than RLE, per the paper and per this
// repository's Go microbenchmarks).
func SP2Calibrated() Params {
	return Params{
		Name:       "sp2-calibrated",
		Ts:         5e-4,
		TpPerByte:  4e-8,
		ToPerPixel: 1.5e-7,
		CodecCosts: map[string]CodecCost{
			"trle": {EncPerByte: 5e-9, DecPerByte: 5e-9},
			"rle":  {EncPerByte: 9e-9, DecPerByte: 7e-9},
		},
	}
}

// Result is the outcome of a simulated composition.
type Result struct {
	// Time is the composition time: the largest rank clock after the last
	// step (plus the gather when Params.IncludeGather is set).
	Time float64
	// GatherTime is the extra time the final gather to rank 0 would cost
	// (always computed; included in Time only with Params.IncludeGather).
	GatherTime float64
	// PerRankTime is each rank's finish time.
	PerRankTime []float64
	// StepTime[k] is the time by which every rank finished step k.
	StepTime []float64
	// Traffic totals across ranks and steps.
	Msgs       int
	RawBytes   int64
	WireBytes  int64
	OverPixels int64
	// Image is the assembled final image (zero-cost gather), for
	// verification against the serial reference.
	Image *raster.Image
	// Events is the full engine-occupancy trace, one entry per
	// transmission and per compute span (encode, decode+composite), in
	// generation order. internal/trace renders it as a Gantt chart.
	Events []Event
}

// EventKind labels which engine an Event occupied.
type EventKind uint8

// Event kinds: a network-out transmission, or compute work (encoding,
// decoding and compositing).
const (
	EventSend EventKind = iota
	EventCompute
)

// Event is one span of engine occupancy on one rank.
type Event struct {
	Rank   int
	Kind   EventKind
	Step   int
	Block  schedule.Block
	T0, T1 float64
}

type rankState struct {
	store    *fragstore.Store
	stepDone float64 // completion time of this rank's previous step
	txFree   float64 // network-out engine availability
	rxFree   float64 // receive engine availability (single-port model)
	cpuFree  float64 // compute engine availability
	speed    float64 // compute time multiplier (1 = nominal)
}

type flight struct {
	tr      schedule.Transfer
	arrival float64
	frags   []fragstore.Fragment
	raw     int64
}

// Simulate runs the schedule on the layers (layers[r] is rank r's partial
// image) under the machine model and returns timings, traffic and the final
// image.
func Simulate(sched *schedule.Schedule, layers []*raster.Image, cdc codec.Codec, p Params) (*Result, error) {
	if len(layers) != sched.P {
		return nil, fmt.Errorf("simnet: %d layers for %d ranks", len(layers), sched.P)
	}
	if cdc == nil {
		cdc = codec.Raw{}
	}
	cost := p.CodecCosts[cdc.Name()]
	w, h := layers[0].W, layers[0].H
	for r, im := range layers {
		if im.W != w || im.H != h {
			return nil, fmt.Errorf("simnet: layer %d has size %dx%d, want %dx%d", r, im.W, im.H, w, h)
		}
	}

	ranks := make([]*rankState, sched.P)
	for r := range ranks {
		speed := 1.0
		if p.RankSpeed != nil {
			if len(p.RankSpeed) != sched.P {
				return nil, fmt.Errorf("simnet: RankSpeed has %d entries for %d ranks", len(p.RankSpeed), sched.P)
			}
			speed = p.RankSpeed[r]
			if speed <= 0 {
				return nil, fmt.Errorf("simnet: rank %d speed %v must be positive", r, speed)
			}
		}
		ranks[r] = &rankState{
			store: fragstore.New(r, sched, layers[r]),
			speed: speed,
		}
	}
	// Fragments cross from store to store here — a receiver holds views into
	// its senders' slabs — so no store lets go of its memory before all are
	// done.
	defer func() {
		for _, rs := range ranks {
			if rs != nil {
				rs.store.Release()
			}
		}
	}()
	res := &Result{PerRankTime: make([]float64, sched.P)}
	var encScratch []byte // trial-encode buffer; only its length is used

	for si, step := range sched.Steps {
		for h := 0; h < step.PreHalvings; h++ {
			for _, rs := range ranks {
				rs.store.HalveAll()
			}
		}

		// Phase A: issue every send in schedule order. Encoding occupies
		// the sender's compute engine; the wire occupies its network-out
		// engine; the arrival time is the end of transmission.
		inbox := make([][]flight, sched.P)
		for _, tr := range step.Transfers {
			rs := ranks[tr.From]
			frags, err := rs.store.Take(tr.Block)
			if err != nil {
				return nil, err
			}
			// A block received in an earlier step is ready by then: that
			// step's stepDone is at or past the merge that completed it.
			dataReady := rs.stepDone
			// Wire bytes are what the real send path would ship: the same
			// codec.EncodeCapped, so the raw escape is accounted here too.
			var raw, wire int64
			for _, f := range frags {
				raw += int64(len(f.Data))
				encScratch = codec.EncodeCapped(encScratch[:0], f.Data, cdc)
				wire += int64(len(encScratch))
			}
			sendReady := dataReady
			if cost.EncPerByte > 0 {
				encStart := maxf(rs.cpuFree, dataReady)
				rs.cpuFree = encStart + rs.speed*float64(raw)*cost.EncPerByte
				sendReady = rs.cpuFree
				res.Events = append(res.Events, Event{
					Rank: tr.From, Kind: EventCompute, Step: si, Block: tr.Block, T0: encStart, T1: rs.cpuFree,
				})
			}
			txStart := maxf(rs.txFree, sendReady)
			rs.txFree = txStart + p.Ts + float64(wire)*p.TpPerByte
			res.Events = append(res.Events, Event{
				Rank: tr.From, Kind: EventSend, Step: si, Block: tr.Block, T0: txStart, T1: rs.txFree,
			})
			arrival := rs.txFree
			if p.SinglePort {
				// The receive port is occupied for the message's wire time;
				// reception overlaps the transmission when the port is idle
				// (cut-through), and queues behind earlier messages when
				// several senders converge on one receiver.
				dst := ranks[tr.To]
				wireTime := p.Ts + float64(wire)*p.TpPerByte
				rxStart := maxf(arrival-wireTime, dst.rxFree)
				dst.rxFree = rxStart + wireTime
				arrival = maxf(arrival, dst.rxFree)
			}
			inbox[tr.To] = append(inbox[tr.To], flight{tr: tr, arrival: arrival, frags: frags, raw: raw})
			res.Msgs++
			res.RawBytes += raw
			res.WireBytes += wire
		}

		// Phase B: each rank consumes its arrivals in arrival order;
		// decode and composite occupy its compute engine.
		for r, rs := range ranks {
			arrivals := inbox[r]
			sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].arrival < arrivals[j].arrival })
			for _, fl := range arrivals {
				start := maxf(maxf(rs.cpuFree, fl.arrival), rs.stepDone)
				spanStart := start
				if cost.DecPerByte > 0 {
					start += rs.speed * float64(fl.raw) * cost.DecPerByte
				}
				overPix, err := rs.store.Merge(fl.tr.Block, fl.frags)
				if err != nil {
					return nil, err
				}
				rs.cpuFree = start + rs.speed*float64(overPix)*p.ToPerPixel
				res.OverPixels += overPix
				res.Events = append(res.Events, Event{
					Rank: r, Kind: EventCompute, Step: si, Block: fl.tr.Block, T0: spanStart, T1: rs.cpuFree,
				})
			}
			rs.stepDone = maxf(maxf(rs.stepDone, rs.cpuFree), rs.txFree)
		}

		for h := 0; h < step.PostHalvings; h++ {
			for _, rs := range ranks {
				rs.store.HalveAll()
			}
		}

		if p.StepBarrier {
			var t float64
			for _, rs := range ranks {
				t = maxf(t, rs.stepDone)
			}
			for _, rs := range ranks {
				rs.stepDone = t
			}
		}
		var stepMax float64
		for _, rs := range ranks {
			stepMax = maxf(stepMax, rs.stepDone)
		}
		res.StepTime = append(res.StepTime, stepMax)
	}

	// Finish: verify completeness and assemble the final image for free.
	out := raster.New(w, h)
	covered := 0
	for r, rs := range ranks {
		if err := rs.store.CheckComplete(sched.P); err != nil {
			return nil, err
		}
		covered += rs.store.CopyInto(out)
		res.PerRankTime[r] = rs.stepDone
		if rs.stepDone > res.Time {
			res.Time = rs.stepDone
		}
	}
	if covered != w*h {
		return nil, fmt.Errorf("simnet: final blocks cover %d of %d pixels", covered, w*h)
	}
	res.Image = out

	// Gather cost: every non-root rank ships its final blocks (raw) to
	// rank 0; under the one-port model the root's receive port drains the
	// messages one after another.
	gatherDone := ranks[0].stepDone
	rootPort := ranks[0].stepDone
	for r := 1; r < sched.P; r++ {
		rs := ranks[r]
		var bytes int64
		for i := 0; i < rs.store.Len(); i++ {
			_, frags := rs.store.At(i)
			bytes += int64(len(frags[0].Data))
		}
		if bytes == 0 {
			continue
		}
		wireTime := p.Ts + float64(bytes)*p.TpPerByte
		arrive := maxf(rs.txFree, rs.stepDone) + wireTime
		if p.SinglePort {
			rootPort = maxf(rootPort, arrive-wireTime) + wireTime
			arrive = maxf(arrive, rootPort)
		}
		gatherDone = maxf(gatherDone, arrive)
	}
	res.GatherTime = gatherDone - res.Time
	if res.GatherTime < 0 {
		res.GatherTime = 0
	}
	if p.IncludeGather {
		res.Time += res.GatherTime
	}
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
