package experiments

import (
	"fmt"

	"rtcomp/internal/model"
	"rtcomp/internal/schedule"
	"rtcomp/internal/stats"
)

// runPredict sets the census-based analytic predictor (the reconstruction's
// "theoretical" series) against the virtual-time simulator for every
// method — our analogue of the paper's theory-matches-experiment claim in
// Figure 5/6.
func runPredict(o Options) ([]*stats.Table, error) {
	layers, err := Partials(o, o.P)
	if err != nil {
		return nil, err
	}
	m := model.Params{Ts: o.Sim.Ts, Tp: o.Sim.TpPerByte, To: o.Sim.ToPerPixel}
	t := &stats.Table{
		Title: fmt.Sprintf("Census predictor vs simulator (dataset %s, P=%d, %dx%d, %s constants)",
			o.Dataset, o.P, o.Width, o.Height, o.Sim.Name),
		Headers: []string{"method", "predicted", "simulated", "pred/sim"},
	}
	ms, err := methods(o.P, "BS", "Tree", "PP", "RT(N=2)", "RT(N=4)", "RT(N=8)")
	if err != nil {
		return nil, err
	}
	for _, mm := range ms {
		census, err := schedule.Validate(mm.sch, o.Apix())
		if err != nil {
			return nil, err
		}
		pred := model.PredictFromCensus(census, m)
		res, err := simulate(mm.sch, layers, "raw", o.Sim)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if res.Time > 0 {
			ratio = pred / res.Time
		}
		t.Add(mm.name, stats.Seconds(pred), stats.Seconds(res.Time), fmt.Sprintf("%.2f", ratio))
	}
	t.Note("the predictor ignores cross-step slack and blank-pixel over short-circuits, so it sits above the simulator; both must rank the methods the same way")
	return []*stats.Table{t}, nil
}

// runTimeline prints per-step completion times of the four methods — how
// the composition progresses through its steps under the simulator.
func runTimeline(o Options) ([]*stats.Table, error) {
	layers, err := Partials(o, o.P)
	if err != nil {
		return nil, err
	}
	ms, err := methods(o.P, "BS", "PP", "2N_RT(4)")
	if err != nil {
		return nil, err
	}
	type series struct {
		name  string
		times []float64
	}
	var all []series
	for _, mm := range ms {
		res, err := simulate(mm.sch, layers, "raw", o.Sim)
		if err != nil {
			return nil, err
		}
		all = append(all, series{mm.name, res.StepTime})
	}

	maxSteps := 0
	for _, s := range all {
		if len(s.times) > maxSteps {
			maxSteps = len(s.times)
		}
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Per-step completion times (dataset %s, P=%d, %dx%d)", o.Dataset, o.P, o.Width, o.Height),
		Headers: []string{"step"},
	}
	for _, s := range all {
		t.Headers = append(t.Headers, s.name)
	}
	for k := 0; k < maxSteps; k++ {
		row := []string{fmt.Sprint(k + 1)}
		for _, s := range all {
			if k < len(s.times) {
				row = append(row, stats.Seconds(s.times[k]))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	t.Note("log-step methods finish their traffic in ceil(log2 P) rows; the pipeline needs P-1")
	return []*stats.Table{t}, nil
}
