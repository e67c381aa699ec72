package exper

import (
	"fmt"
	"io"

	"regsim/internal/isa"
	"regsim/internal/rename"
	"regsim/internal/stats"
	"regsim/internal/workload"
)

// Fig4Curves holds Figure 4's average register-usage run-time-coverage
// curves for one issue width and one register file, under both exception
// models, measured at the cost-effective queue size with 2048 registers.
type Fig4Curves struct {
	Width   int
	File    isa.RegFile
	Precise stats.Dist // distribution of total live registers
	// Imprecise is the distribution of registers an imprecise machine
	// would keep live (the same runs' imprecise-estimation counts).
	Imprecise stats.Dist
}

// Fig4 holds all four width×file panels.
type Fig4 struct {
	Budget int64
	Curves []Fig4Curves
}

// Fig4 builds the averaged coverage curves from the Figure 3 measurement
// runs at the cost-effective queue sizes.
func (s *Suite) Fig4() (*Fig4, error) {
	runs, err := s.measureRuns()
	if err != nil {
		return nil, err
	}
	f := &Fig4{Budget: s.Budget}
	for w, width := range Widths {
		for file := 0; file < 2; file++ {
			var prec, imp []stats.Dist
			for b, bench := range workload.Names() {
				info, _ := workload.Get(bench)
				if file == int(isa.FPFile) && !info.FP {
					continue
				}
				res := runs[w][b]
				prec = append(prec, stats.Normalize(res.Live[file].Cum[rename.CatWaitPrecise]))
				imp = append(imp, stats.Normalize(res.Live[file].Cum[rename.CatWaitImprecise]))
			}
			f.Curves = append(f.Curves, Fig4Curves{
				Width: width, File: isa.RegFile(file),
				Precise: stats.Average(prec), Imprecise: stats.Average(imp),
			})
		}
	}
	return f, nil
}

// fig4Grid is the paper's x-axis tick set for Figure 4.
var fig4Grid = []int{30, 45, 60, 75, 105, 150, 210, 300, 450}

// Print renders each curve as coverage percentages on the paper's grid.
func (f *Fig4) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: average register-usage run-time coverage (%%) at N registers\n")
	fmt.Fprintf(w, "%-22s", "configuration")
	for _, n := range fig4Grid {
		fmt.Fprintf(w, "%7d", n)
	}
	fmt.Fprintf(w, "%8s %8s\n", "p90", "p100")
	for _, c := range f.Curves {
		for _, m := range []struct {
			name string
			d    stats.Dist
		}{{"precise", c.Precise}, {"imprecise", c.Imprecise}} {
			fmt.Fprintf(w, "%d-way %-5s %-9s ", c.Width, c.File, m.name)
			for _, n := range fig4Grid {
				fmt.Fprintf(w, "%6.1f%%", 100*m.d.CoverageAt(n))
			}
			fmt.Fprintf(w, "%8d %8d\n", m.d.Percentile(0.90), m.d.FullCoveragePoint())
		}
	}
}

// Fig5 is the tomcatv case study: FP-register coverage for the 8-way,
// 64-entry-queue machine under both models (the paper's extreme case, where
// the precise model's distribution is bimodal and reaches ~500 registers).
type Fig5 struct {
	Budget    int64
	Precise   stats.Dist
	Imprecise stats.Dist
}

// Fig5 extracts tomcatv's curves from the 8-way measurement run.
func (s *Suite) Fig5() (*Fig5, error) {
	res, err := s.Run(measureSpec("tomcatv", 8, CostEffectiveQueue(8)))
	if err != nil {
		return nil, err
	}
	fp := res.Live[isa.FPFile]
	return &Fig5{
		Budget:    s.Budget,
		Precise:   stats.Normalize(fp.Cum[rename.CatWaitPrecise]),
		Imprecise: stats.Normalize(fp.Cum[rename.CatWaitImprecise]),
	}, nil
}

// Print renders the two coverage curves on a wide register grid.
func (f *Fig5) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: tomcatv floating-point register coverage (8-way, 64-entry queue)\n")
	grid := []int{50, 100, 150, 200, 250, 300, 400, 500, 600}
	fmt.Fprintf(w, "%-10s", "model")
	for _, n := range grid {
		fmt.Fprintf(w, "%7d", n)
	}
	fmt.Fprintf(w, "%8s %8s\n", "p90", "p100")
	for _, m := range []struct {
		name string
		d    stats.Dist
	}{{"precise", f.Precise}, {"imprecise", f.Imprecise}} {
		fmt.Fprintf(w, "%-10s", m.name)
		for _, n := range grid {
			fmt.Fprintf(w, "%6.1f%%", 100*m.d.CoverageAt(n))
		}
		fmt.Fprintf(w, "%8d %8d\n", m.d.Percentile(0.90), m.d.FullCoveragePoint())
	}
}
