// rtbench regenerates the paper's tables and figures. Each experiment
// prints the rows/series of one paper artifact; see EXPERIMENTS.md for the
// index.
//
// Usage:
//
//	rtbench -exp fig5                        # one experiment, paper scale
//	rtbench -exp all -quick                  # everything, scaled down
//	rtbench -exp fig6 -dataset head          # other datasets
//	rtbench -exp fig8 -csv > fig8.csv        # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"

	"rtcomp/internal/experiments"
	"rtcomp/internal/simnet"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		dataset = flag.String("dataset", "engine", "phantom dataset: engine, head, brain")
		p       = flag.Int("p", 0, "processor count (default: experiment default)")
		volN    = flag.Int("voln", 0, "phantom resolution (default: experiment default)")
		size    = flag.Int("size", 0, "composite image edge in pixels (default 512)")
		maxN    = flag.Int("maxn", 0, "initial-block sweep bound")
		quick   = flag.Bool("quick", false, "scaled-down run for smoke testing")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		machine = flag.String("machine", "sp2", "simulated machine: sp2 (calibrated) or paper (Section 2.3 constants)")
	)
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Printf("%-10s %-12s %s\n", s.ID, "("+s.Paper+")", s.Title)
		}
		return
	}

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	o.Dataset = *dataset
	if *p > 0 {
		o.P = *p
	}
	if *volN > 0 {
		o.VolumeN = *volN
	}
	if *size > 0 {
		o.Width, o.Height = *size, *size
	}
	if *maxN > 0 {
		o.MaxN = *maxN
	}
	sim, err := simnet.Machine(*machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
		os.Exit(2)
	}
	o.Sim = sim

	specs := experiments.Registry()
	if *exp != "all" {
		s, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "rtbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		specs = []experiments.Spec{s}
	}

	for _, s := range specs {
		tables, err := s.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %s: %v\n", s.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				if err := t.CSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
					os.Exit(1)
				}
				fmt.Println()
				continue
			}
			fmt.Println(t.String())
		}
	}
}
