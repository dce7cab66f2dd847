package experiments

import (
	"fmt"

	"rtcomp/internal/stats"
)

// runContention studies the methods under two machine-model stresses the
// SP2 baseline hides: a one-port network (incoming messages serialise
// through each receive port) and a single 3x straggler rank. Methods that
// spread traffic and work — the rotate-tiling idea — should degrade least.
func runContention(o Options) ([]*stats.Table, error) {
	p := o.P
	layers, err := Partials(o, p)
	if err != nil {
		return nil, err
	}
	ms, err := methods(p, "BS", "PP", "DS", "2N_RT(4)")
	if err != nil {
		return nil, err
	}

	base := o.Sim
	onePort := o.Sim
	onePort.SinglePort = true
	straggler := o.Sim
	straggler.RankSpeed = make([]float64, p)
	for i := range straggler.RankSpeed {
		straggler.RankSpeed[i] = 1
	}
	straggler.RankSpeed[p/2] = 3

	t := &stats.Table{
		Title: fmt.Sprintf("Contention and stragglers (dataset %s, P=%d, %dx%d)",
			o.Dataset, p, o.Width, o.Height),
		Headers: []string{"method", "baseline", "one-port", "penalty", "3x straggler", "penalty"},
	}
	for _, m := range ms {
		b, err := simulate(m.sch, layers, "raw", base)
		if err != nil {
			return nil, err
		}
		op, err := simulate(m.sch, layers, "raw", onePort)
		if err != nil {
			return nil, err
		}
		st, err := simulate(m.sch, layers, "raw", straggler)
		if err != nil {
			return nil, err
		}
		t.Add(m.name, stats.Seconds(b.Time),
			stats.Seconds(op.Time), fmt.Sprintf("%.2fx", op.Time/b.Time),
			stats.Seconds(st.Time), fmt.Sprintf("%.2fx", st.Time/b.Time))
	}
	t.Note("one rank runs at a third of nominal speed in the straggler column; one-port serialises each receive port")
	return []*stats.Table{t}, nil
}
