package experiments

import (
	"fmt"

	"rtcomp/internal/codec"
	"rtcomp/internal/model"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/simnet"
	"rtcomp/internal/stats"
)

// simulate runs one simulated composition under the named codec.
func simulate(sch *schedule.Schedule, layers []*raster.Image, codecName string, p simnet.Params) (*simnet.Result, error) {
	cdc, err := codec.ByName(codecName)
	if err != nil {
		return nil, err
	}
	return simnet.Simulate(sch, layers, cdc, p)
}

// method is one row of a method-comparison table.
type method struct {
	name string
	sch  *schedule.Schedule
}

// methods builds the named schedules for p ranks, in the order asked,
// leaving out those p does not admit: binary-swap off a power of two, N_RT
// on an odd p. A name is the label its table prints.
func methods(p int, want ...string) ([]method, error) {
	var ms []method
	for _, name := range want {
		var sch *schedule.Schedule
		var err error
		switch name {
		case "BS", "binary-swap":
			if !schedule.IsPowerOfTwo(p) {
				continue
			}
			sch, err = schedule.BinarySwap(p)
		case "PP":
			sch, err = schedule.Pipeline(p)
		case "DS":
			sch, err = schedule.DirectSend(p)
		case "Tree", "binary-tree":
			sch, err = schedule.Tree(p)
		case "2N_RT(4)":
			sch, err = schedule.TwoNRT(p, 4)
		case "N_RT(3)":
			if p%2 != 0 {
				continue
			}
			sch, err = schedule.NRT(p, 3)
		default:
			var n int
			if _, scanErr := fmt.Sscanf(name, "RT(N=%d)", &n); scanErr != nil {
				return nil, fmt.Errorf("experiments: unknown method %q", name)
			}
			sch, err = schedule.RT(p, n)
		}
		if err != nil {
			return nil, err
		}
		ms = append(ms, method{name, sch})
	}
	return ms, nil
}

// runFig5 sweeps the number of initial blocks for both RT variants,
// printing the paper's theoretical series (Table 1 sums and the closed
// form) beside the simulated experimental series.
func runFig5(o Options) ([]*stats.Table, error) {
	layers, err := Partials(o, o.P)
	if err != nil {
		return nil, err
	}
	apix := o.Apix()
	t := &stats.Table{
		Title: fmt.Sprintf("Figure 5 — composition time vs initial blocks (dataset %s, P=%d, %dx%d)",
			o.Dataset, o.P, o.Width, o.Height),
		Headers: []string{"N", "N_RT model", "N_RT closed", "N_RT sim", "2N_RT model", "2N_RT closed", "2N_RT sim"},
	}
	bestSim, bestN := -1.0, 0
	for n := 1; n <= o.MaxN; n++ {
		row := []string{fmt.Sprint(n)}
		if o.P%2 == 0 {
			sch, err := schedule.NRT(o.P, n)
			if err != nil {
				return nil, err
			}
			res, err := simulate(sch, layers, "raw", o.Sim)
			if err != nil {
				return nil, err
			}
			row = append(row,
				stats.Seconds(model.NRT(o.P, n, apix, o.Model).Total()),
				stats.Seconds(model.ClosedFormRT(o.P, n, apix, o.Model)),
				stats.Seconds(res.Time))
			if bestSim < 0 || res.Time < bestSim {
				bestSim, bestN = res.Time, n
			}
		} else {
			row = append(row, "-", "-", "-")
		}
		if n%2 == 0 {
			sch, err := schedule.TwoNRT(o.P, n)
			if err != nil {
				return nil, err
			}
			res, err := simulate(sch, layers, "raw", o.Sim)
			if err != nil {
				return nil, err
			}
			row = append(row,
				stats.Seconds(model.TwoNRT(o.P, n, apix, o.Model).Total()),
				stats.Seconds(model.ClosedFormRT(o.P, n, apix, o.Model)),
				stats.Seconds(res.Time))
		} else {
			row = append(row, "-", "-", "-")
		}
		t.Add(row...)
	}
	b5, n5 := model.OptimalN2NRT(o.P, apix, o.Model)
	t.Note("simulated minimum at N=%d (%.4fs); Eq (5) closed-form bound %.2f -> N=%d under the paper's constants",
		bestN, bestSim, b5, n5)
	return []*stats.Table{t}, nil
}

// fig6P returns the processor sweep of Figure 6.
func fig6P(o Options) []int {
	if o.Quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16, 24, 32}
}

// runFig6 compares the four methods across processor counts: the paper's
// theoretical totals and the simulated times, with the RT variants at their
// Figure 6 block counts (N=4 for 2N_RT, N=3 for N_RT).
func runFig6(o Options) ([]*stats.Table, error) {
	apix := o.Apix()
	t := &stats.Table{
		Title: fmt.Sprintf("Figure 6 — composition time of BS, PP, 2N_RT(4), N_RT(3) (dataset %s, %dx%d)",
			o.Dataset, o.Width, o.Height),
		Headers: []string{"P", "BS model", "BS sim", "PP model", "PP sim",
			"2N_RT model", "2N_RT sim", "N_RT model", "N_RT sim"},
	}
	for _, p := range fig6P(o) {
		layers, err := Partials(o, p)
		if err != nil {
			return nil, err
		}
		ms, err := methods(p, "BS", "PP", "2N_RT(4)", "N_RT(3)")
		if err != nil {
			return nil, err
		}
		sim := map[string]string{}
		for _, m := range ms {
			res, err := simulate(m.sch, layers, "raw", o.Sim)
			if err != nil {
				return nil, err
			}
			sim[m.name] = stats.Seconds(res.Time)
		}
		row := []string{fmt.Sprint(p)}
		for _, c := range []struct {
			name string
			cost model.Cost
		}{
			{"BS", model.BS(p, apix, o.Model)},
			{"PP", model.PP(p, apix, o.Model)},
			{"2N_RT(4)", model.TwoNRT(p, 4, apix, o.Model)},
			{"N_RT(3)", model.NRT(p, 3, apix, o.Model)},
		} {
			if s, ok := sim[c.name]; ok {
				row = append(row, stats.Seconds(c.cost.Total()), s)
			} else {
				row = append(row, "-", "-")
			}
		}
		t.Add(row...)
	}
	t.Note("expected shape: RT variants beat BS and PP at the largest P; PP degrades linearly with P")
	return []*stats.Table{t}, nil
}

// runFig7 sweeps initial blocks for both RT variants with and without TRLE.
func runFig7(o Options) ([]*stats.Table, error) {
	layers, err := Partials(o, o.P)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Figure 7 — RT composition time with and without TRLE (dataset %s, P=%d, %dx%d)",
			o.Dataset, o.P, o.Width, o.Height),
		Headers: []string{"N", "N_RT raw", "N_RT trle", "2N_RT raw", "2N_RT trle"},
	}
	for n := 1; n <= o.MaxN; n++ {
		row := []string{fmt.Sprint(n)}
		if o.P%2 == 0 {
			sch, err := schedule.NRT(o.P, n)
			if err != nil {
				return nil, err
			}
			raw, err := simulate(sch, layers, "raw", o.Sim)
			if err != nil {
				return nil, err
			}
			trle, err := simulate(sch, layers, "trle", o.Sim)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Seconds(raw.Time), stats.Seconds(trle.Time))
		} else {
			row = append(row, "-", "-")
		}
		if n%2 == 0 {
			sch, err := schedule.TwoNRT(o.P, n)
			if err != nil {
				return nil, err
			}
			raw, err := simulate(sch, layers, "raw", o.Sim)
			if err != nil {
				return nil, err
			}
			trle, err := simulate(sch, layers, "trle", o.Sim)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Seconds(raw.Time), stats.Seconds(trle.Time))
		} else {
			row = append(row, "-", "-")
		}
		t.Add(row...)
	}
	t.Note("TRLE shrinks every transfer, so the whole curve shifts down")
	return []*stats.Table{t}, nil
}

// runFig8 crosses the four methods with the three codecs at the headline
// processor count.
func runFig8(o Options) ([]*stats.Table, error) {
	layers, err := Partials(o, o.P)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Figure 8 — composition time with raw, RLE and TRLE (dataset %s, P=%d, %dx%d)",
			o.Dataset, o.P, o.Width, o.Height),
		Headers: []string{"method", "raw", "rle", "trle"},
	}
	ms, err := methods(o.P, "BS", "PP", "2N_RT(4)", "N_RT(3)")
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		row := []string{m.name}
		for _, cname := range codec.Names() {
			res, err := simulate(m.sch, layers, cname, o.Sim)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Seconds(res.Time))
		}
		t.Add(row...)
	}
	t.Note("expected ordering per method: trle < rle < raw; RT variants fastest overall")
	return []*stats.Table{t}, nil
}

// runCompress reports the compression behaviour of real rendered partial
// images across the three datasets — the data behind the paper's claim
// that TRLE outcompresses RLE on gray images.
func runCompress(o Options) ([]*stats.Table, error) {
	t := &stats.Table{
		Title:   fmt.Sprintf("Partial-image compression (P=%d, %dx%d)", o.P, o.Width, o.Height),
		Headers: []string{"dataset", "blank fraction", "rle ratio", "trle ratio"},
	}
	for _, ds := range []string{"engine", "head", "brain"} {
		local := o
		local.Dataset = ds
		layers, err := Partials(local, o.P)
		if err != nil {
			return nil, err
		}
		var blanks []float64
		var raw, rle, trle int64
		for _, im := range layers {
			blanks = append(blanks, im.BlankFraction())
			raw += int64(len(im.Pix))
			rle += int64(len(codec.RLE{}.EncodeAppend(nil, im.Pix)))
			trle += int64(len(codec.TRLE{}.EncodeAppend(nil, im.Pix)))
		}
		t.Add(ds, fmt.Sprintf("%.2f", stats.Mean(blanks)),
			fmt.Sprintf("%.2f", codec.Ratio(int(raw), int(rle))),
			fmt.Sprintf("%.2f", codec.Ratio(int(raw), int(trle))))
	}
	t.Note("ratios are original/encoded over all ranks' partial images")
	return []*stats.Table{t}, nil
}
