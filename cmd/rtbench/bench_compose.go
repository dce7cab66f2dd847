// Allocation-budget benchmarks for the composition hot path: every
// method x codec x P cell runs real compositions over the in-process
// fabric under testing.Benchmark with allocation reporting, emits the
// machine-readable BENCH_compose.json, fails the process if any cell ships
// more wire bytes than raw bytes (the raw escape's invariant) and, when a
// budget file is given, if allocs/op regresses above the committed ceiling —
// the CI tripwire that keeps the steady state allocation-free.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/inproc"
)

// benchRow is one cell of the composition benchmark matrix.
type benchRow struct {
	Method      string  `json:"method"`
	Codec       string  `json:"codec"`
	P           int     `json:"p"`
	Pipeline    bool    `json:"pipeline,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// RawBytes and WireBytes are the summed pre-codec and encoded payload
	// bytes all ranks shipped in one composition — the codec's compression
	// on this workload, measured from the run reports so the wire win and
	// its time cost sit in the same row.
	RawBytes  int64 `json:"raw_bytes,omitempty"`
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// OverlapRatio is the mean per-rank tile concurrency of a pipelined
	// run: sum of PhaseTile span durations over the rank's tile-processing
	// wall extent. 1.0 means tiles ran strictly one after another; above 1
	// is the overlap the pipeline exists to create. Zero for sync rows.
	OverlapRatio float64 `json:"overlap_ratio,omitempty"`
	// Latency quantiles of the same instrumented pipelined run, merged
	// across ranks from the run's log-bucketed histograms: tile claim ->
	// fully composited, and run start -> progressive tile delivery at the
	// gather root. Zero for sync rows.
	TileP50Ns    int64 `json:"tile_p50_ns,omitempty"`
	TileP95Ns    int64 `json:"tile_p95_ns,omitempty"`
	TileP99Ns    int64 `json:"tile_p99_ns,omitempty"`
	PartialP50Ns int64 `json:"partial_p50_ns,omitempty"`
	PartialP95Ns int64 `json:"partial_p95_ns,omitempty"`
	PartialP99Ns int64 `json:"partial_p99_ns,omitempty"`
	// Load-generator rows (Method "load") report what the admission gate
	// did to a request storm: end-to-end latency of served requests
	// through admit + composite, the fraction shed, and the offered total.
	Clients  int     `json:"clients,omitempty"`
	Offered  int     `json:"offered,omitempty"`
	LatP50Ns int64   `json:"lat_p50_ns,omitempty"`
	LatP99Ns int64   `json:"lat_p99_ns,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
}

func (r benchRow) key() string {
	k := fmt.Sprintf("%s/%s/p%d", r.Method, r.Codec, r.P)
	if r.Pipeline {
		k += "/pipe"
	}
	return k
}

// benchEdge is the composite image edge: small enough for a CI smoke run,
// large enough that payload buffers land in real pool classes.
const benchEdge = 128

// benchSchedules builds the method column of the matrix for one P.
func benchSchedules(p int) (map[string]*schedule.Schedule, error) {
	rt, err := schedule.RT(p, 4)
	if err != nil {
		return nil, err
	}
	bs, err := schedule.BinarySwap(p)
	if err != nil {
		return nil, err
	}
	pp, err := schedule.Pipeline(p)
	if err != nil {
		return nil, err
	}
	return map[string]*schedule.Schedule{"rt4": rt, "bs": bs, "pp": pp}, nil
}

// benchLayers renders deterministic pseudo-layers: banded alpha so the RLE
// and TRLE codecs see both blank and dense runs, different per rank so the
// composite is not degenerate.
func benchLayers(p, w, h int) []*raster.Image {
	layers := make([]*raster.Image, p)
	for r := range layers {
		img := raster.New(w, h)
		for i := 0; i < len(img.Pix); i += raster.BytesPerPixel {
			px := i / raster.BytesPerPixel
			if (px/(w/4)+r)%3 == 0 {
				continue // transparent band
			}
			img.Pix[i] = uint8((px + 17*r) % 256)
			img.Pix[i+1] = uint8(128 + (px+r)%128)
		}
		layers[r] = img
	}
	return layers
}

// measureOverlap runs one instrumented pipelined composition and reduces
// its PhaseTile spans to the mean per-rank tile concurrency: for each rank,
// the summed tile span durations divided by the wall extent the rank spent
// processing tiles. Strictly sequential tile handling scores 1.0; the
// pipeline's whole point is to score above it. The recorder is returned so
// the caller can also mine the run's latency histograms.
func measureOverlap(sched *schedule.Schedule, layers []*raster.Image, opts compositor.Options) (float64, *telemetry.Recorder, error) {
	rec := telemetry.New()
	opts.Telemetry = rec
	err := inproc.Run(sched.P, func(c comm.Comm) error {
		_, _, err := compositor.Run(c, sched, layers[c.Rank()], opts)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	type ext struct {
		sum, lo, hi time.Duration
	}
	per := map[int]*ext{}
	for _, s := range rec.Spans() {
		if s.Name != telemetry.PhaseTile {
			continue
		}
		e := per[s.Rank]
		if e == nil {
			e = &ext{lo: s.Start, hi: s.End}
			per[s.Rank] = e
		}
		e.sum += s.End - s.Start
		if s.Start < e.lo {
			e.lo = s.Start
		}
		if s.End > e.hi {
			e.hi = s.End
		}
	}
	if len(per) == 0 {
		return 0, nil, fmt.Errorf("pipelined run recorded no %s spans", telemetry.PhaseTile)
	}
	var tot float64
	for _, e := range per {
		if e.hi > e.lo {
			tot += float64(e.sum) / float64(e.hi-e.lo)
		}
	}
	return tot / float64(len(per)), rec, nil
}

// measureWire runs one composition and sums the per-rank raw and encoded
// payload bytes from the run reports.
func measureWire(sched *schedule.Schedule, layers []*raster.Image, opts compositor.Options) (raw, wire int64, err error) {
	var mu sync.Mutex
	err = inproc.Run(sched.P, func(c comm.Comm) error {
		_, rep, err := compositor.Run(c, sched, layers[c.Rank()], opts)
		mu.Lock()
		raw += rep.RawBytes
		wire += rep.WireBytes
		mu.Unlock()
		return err
	})
	return raw, wire, err
}

// benchCompose runs the full matrix, writes rows to outPath and, when
// budgetPath is non-empty, enforces the committed allocs/op ceilings.
func benchCompose(outPath, budgetPath string) error {
	codecs := []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", codec.Raw{}},
		{"rle", codec.RLE{}},
		{"trle", codec.TRLE{}},
	}
	var rows []benchRow
	dropsBefore := bufpool.Default.Stats().Drops
	for _, p := range []int{4, 8} {
		scheds, err := benchSchedules(p)
		if err != nil {
			return err
		}
		layers := benchLayers(p, benchEdge, benchEdge)
		for _, method := range []string{"rt4", "bs", "pp"} {
			sched := scheds[method]
			for _, cc := range codecs {
				for _, pipelined := range []bool{false, true} {
					opts := compositor.Options{Codec: cc.cdc, GatherRoot: 0}
					opts.Pipeline.Enabled = pipelined
					res := testing.Benchmark(func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							err := inproc.Run(p, func(c comm.Comm) error {
								_, _, err := compositor.Run(c, sched, layers[c.Rank()], opts)
								return err
							})
							if err != nil {
								b.Fatal(err)
							}
						}
					})
					row := benchRow{
						Method:      method,
						Codec:       cc.name,
						P:           p,
						Pipeline:    pipelined,
						NsPerOp:     float64(res.NsPerOp()),
						BytesPerOp:  res.AllocedBytesPerOp(),
						AllocsPerOp: res.AllocsPerOp(),
					}
					raw, wire, err := measureWire(sched, layers, opts)
					if err != nil {
						return err
					}
					row.RawBytes, row.WireBytes = raw, wire
					if pipelined {
						ratio, rec, err := measureOverlap(sched, layers, opts)
						if err != nil {
							return err
						}
						row.OverlapRatio = ratio
						qs := rec.QuantileAll(telemetry.HistTileLatency, 0.50, 0.95, 0.99)
						row.TileP50Ns = int64(qs[0])
						row.TileP95Ns = int64(qs[1])
						row.TileP99Ns = int64(qs[2])
						qs = rec.QuantileAll(telemetry.HistPartialLatency, 0.50, 0.95, 0.99)
						row.PartialP50Ns = int64(qs[0])
						row.PartialP95Ns = int64(qs[1])
						row.PartialP99Ns = int64(qs[2])
					}
					rows = append(rows, row)
					fmt.Printf("%-20s %12.0f ns/op %12d B/op %8d allocs/op",
						row.key(), row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
					if pipelined {
						fmt.Printf("  overlap %.2fx  tile p50/p99 %v/%v",
							row.OverlapRatio, time.Duration(row.TileP50Ns), time.Duration(row.TileP99Ns))
					}
					fmt.Println()
				}
			}
		}
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", outPath, len(rows))

	// The raw escape as a tripwire: no cell may ship more than its pixels.
	var expanded int
	for _, row := range rows {
		if row.WireBytes > row.RawBytes {
			expanded++
			fmt.Printf("FAIL %s: %d wire bytes exceed %d raw\n", row.key(), row.WireBytes, row.RawBytes)
		}
	}
	if expanded > 0 {
		return fmt.Errorf("%d benchmark cells shipped more wire bytes than raw bytes", expanded)
	}
	// The buffer pool as a tripwire: a Put that finds its class full means
	// some class is being fed buffers it never handed out.
	if drops := bufpool.Default.Stats().Drops - dropsBefore; drops > 0 {
		return fmt.Errorf("the buffer pool dropped %d buffers during the measured cells", drops)
	}

	if budgetPath == "" {
		return nil
	}
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		return fmt.Errorf("reading allocation budget: %w", err)
	}
	budget := map[string]int64{}
	if err := json.Unmarshal(raw, &budget); err != nil {
		return fmt.Errorf("parsing allocation budget: %w", err)
	}
	var failed int
	for _, row := range rows {
		limit, ok := budget[row.key()]
		if !ok {
			fmt.Printf("WARN %s: no committed budget, skipping\n", row.key())
			continue
		}
		if row.AllocsPerOp > limit {
			failed++
			fmt.Printf("FAIL %s: %d allocs/op exceeds budget %d\n", row.key(), row.AllocsPerOp, limit)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark cells regressed above the allocation budget", failed)
	}
	fmt.Println("all cells within the allocation budget")
	return nil
}
