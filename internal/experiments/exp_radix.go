package experiments

import (
	"fmt"

	"rtcomp/internal/schedule"
	"rtcomp/internal/stats"
)

// runRadix sets rotate-tiling against radix-k (the post-paper
// generalisation of binary-swap used by IceT-era compositors) and the
// classic baselines — an extension beyond the paper's evaluation. P must be
// a power of two for the radix-k rounds.
func runRadix(o Options) ([]*stats.Table, error) {
	p := o.P
	if !schedule.IsPowerOfTwo(p) {
		return nil, fmt.Errorf("experiments: radix comparison needs a power-of-two P, got %d", p)
	}
	layers, err := Partials(o, p)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Extension — RT vs radix-k vs classic methods (dataset %s, P=%d, %dx%d)",
			o.Dataset, p, o.Width, o.Height),
		Headers: []string{"method", "steps", "messages", "payload", "sim time"},
	}
	ms, err := methods(p, "binary-tree", "binary-swap")
	if err != nil {
		return nil, err
	}
	factorSets := [][]int{}
	if def, err := schedule.DefaultFactors(p); err == nil {
		factorSets = append(factorSets, def)
	}
	if p >= 8 {
		factorSets = append(factorSets, []int{p}) // single-round direct exchange
	}
	for _, fs := range factorSets {
		rk, err := schedule.RadixK(p, fs)
		if err != nil {
			return nil, err
		}
		ms = append(ms, method{fmt.Sprintf("radix-k%v", fs), rk})
	}
	rt, err := methods(p, "RT(N=4)")
	if err != nil {
		return nil, err
	}

	for _, m := range append(ms, rt...) {
		census, err := schedule.Validate(m.sch, o.Apix())
		if err != nil {
			return nil, err
		}
		res, err := simulate(m.sch, layers, "raw", o.Sim)
		if err != nil {
			return nil, err
		}
		t.Add(m.name, fmt.Sprint(m.sch.NumSteps()), fmt.Sprint(census.TotalMessages()),
			stats.IBytes(census.TotalBytes()), stats.Seconds(res.Time))
	}
	t.Note("radix-k trades steps for per-round fan-out; RT additionally pipelines fine blocks, which is what beats binary-swap here")
	return []*stats.Table{t}, nil
}
