package exper

import (
	"fmt"
	"io"

	"regsim/internal/isa"
	"regsim/internal/rename"
	"regsim/internal/stats"
	"regsim/internal/workload"
)

// Fig3Point is one x-position of Figure 3: average IPC and the
// 90th-percentile live-register decomposition for one issue width and
// dispatch-queue size (2048-register measurement runs).
type Fig3Point struct {
	Width int
	Queue int
	// IssueIPC and CommitIPC are arithmetic means over all benchmarks.
	IssueIPC  float64
	CommitIPC float64
	// Regs[file] holds the 90th percentiles of the cumulative category
	// sums for that register file (integer: all benchmarks; FP: the
	// floating-point-intensive benchmarks, per the paper's footnote 3).
	Regs [2]Fig3Regs
}

// Fig3Regs decomposes the 90th-percentile live registers into the paper's
// stacked regions. Each value is the 90th percentile of a cumulative sum, so
// InQueue ≤ InFlight ≤ Imprecise ≤ Precise.
type Fig3Regs struct {
	// InQueue: registers assigned to instructions still in the dispatch queue.
	InQueue int
	// InFlight: ... plus registers of in-flight instructions.
	InFlight int
	// Imprecise: ... plus registers waiting for the imprecise freeing
	// conditions — the live-register requirement of an imprecise machine.
	Imprecise int
	// Precise: total live registers — the requirement of a precise machine.
	Precise int
}

// Fig3 holds the figure's four panels (2 widths × 2 register files) sampled
// at each dispatch-queue size.
type Fig3 struct {
	Budget int64
	Points []Fig3Point
}

// Fig3 runs the measurement matrix: every benchmark at every queue size and
// width, with 2048 registers and live-register classification, as one batch
// across the suite's worker pool.
func (s *Suite) Fig3() (*Fig3, error) {
	f := &Fig3{Budget: s.Budget}
	for _, width := range Widths {
		for _, queue := range QueueSizes {
			f.Points = append(f.Points, Fig3Point{Width: width, Queue: queue})
		}
	}
	runs, err := s.perBench(len(f.Points), func(i int, bench string) Spec {
		return measureSpec(bench, f.Points[i].Width, f.Points[i].Queue)
	})
	if err != nil {
		return nil, err
	}
	for i := range f.Points {
		pt := &f.Points[i]
		var dists [2][rename.NumCategories][]stats.Dist
		for b, bench := range workload.Names() {
			res := runs[i][b]
			pt.IssueIPC += res.IssueIPC()
			pt.CommitIPC += res.CommitIPC()
			info, _ := workload.Get(bench)
			for file := 0; file < 2; file++ {
				if file == int(isa.FPFile) && !info.FP {
					continue // FP averages use only the FP-intensive benchmarks
				}
				for c := 0; c < int(rename.NumCategories); c++ {
					dists[file][c] = append(dists[file][c], stats.Normalize(res.Live[file].Cum[c]))
				}
			}
		}
		pt.IssueIPC /= float64(len(runs[i]))
		pt.CommitIPC /= float64(len(runs[i]))
		for file := 0; file < 2; file++ {
			var cum [rename.NumCategories]int
			for c := 0; c < int(rename.NumCategories); c++ {
				cum[c] = stats.Average(dists[file][c]).Percentile(0.90)
			}
			pt.Regs[file] = Fig3Regs{
				InQueue:   cum[rename.CatInQueue],
				InFlight:  cum[rename.CatInFlight],
				Imprecise: cum[rename.CatWaitImprecise],
				Precise:   cum[rename.CatWaitPrecise],
			}
		}
	}
	return f, nil
}

// Print renders the four panels as tables.
func (f *Fig3) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: average IPC and 90th-percentile live registers vs dispatch queue size\n")
	for _, width := range Widths {
		for file := 0; file < 2; file++ {
			fmt.Fprintf(w, "\n%d-way issue, %s registers:\n", width, isa.RegFile(file))
			fmt.Fprintf(w, "  %6s %8s %8s | %8s %9s %10s %8s\n",
				"queue", "issIPC", "cmtIPC", "in-queue", "in-flight", "imprecise", "precise")
			for _, pt := range f.Points {
				if pt.Width != width {
					continue
				}
				r := pt.Regs[file]
				fmt.Fprintf(w, "  %6d %8.2f %8.2f | %8d %9d %10d %8d\n",
					pt.Queue, pt.IssueIPC, pt.CommitIPC,
					r.InQueue, r.InFlight, r.Imprecise, r.Precise)
			}
		}
	}
	fmt.Fprintf(w, "\n(register columns are cumulative 90th percentiles: the 'precise' column is\n")
	fmt.Fprintf(w, " the total live registers; 'imprecise' is what an imprecise machine keeps live)\n")
}
