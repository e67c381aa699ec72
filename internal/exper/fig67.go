package exper

import (
	"context"
	"fmt"
	"io"

	"regsim/internal/cache"
	"regsim/internal/isa"
	"regsim/internal/rename"
	"regsim/internal/stats"
)

// Fig6Point is one x-position of Figure 6: average commit IPC and register
// pressure for a real machine with a finite register file.
type Fig6Point struct {
	Width int
	Regs  int
	Model rename.Model
	// CommitIPC is the arithmetic mean over all benchmarks.
	CommitIPC float64
	// NoFreeFrac is the mean fraction of run cycles with no free integer
	// or floating-point registers (the paper's dotted curves).
	NoFreeFrac float64
}

// Fig6 sweeps register-file size for both widths and both exception models
// at the cost-effective queue sizes, with the lockup-free cache.
type Fig6 struct {
	Budget int64
	Points []Fig6Point
}

// Fig6 runs the 2 × 2 × len(RegSizes) × benchmarks sweep as one batch
// across the suite's worker pool.
func (s *Suite) Fig6() (*Fig6, error) {
	f := &Fig6{Budget: s.Budget}
	for _, width := range Widths {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			for _, regs := range RegSizes {
				f.Points = append(f.Points, Fig6Point{Width: width, Regs: regs, Model: model})
			}
		}
	}
	runs, err := s.perBench(len(f.Points), func(i int, bench string) Spec {
		pt := f.Points[i]
		return Spec{Bench: bench, Width: pt.Width, Queue: CostEffectiveQueue(pt.Width),
			Regs: pt.Regs, Model: pt.Model, Cache: cache.LockupFree}
	})
	if err != nil {
		return nil, err
	}
	for i := range f.Points {
		pt := &f.Points[i]
		for _, res := range runs[i] {
			pt.CommitIPC += res.CommitIPC()
			pt.NoFreeFrac += res.NoFreeRegFraction()
		}
		pt.CommitIPC /= float64(len(runs[i]))
		pt.NoFreeFrac /= float64(len(runs[i]))
	}
	return f, nil
}

// Point returns the point for (width, regs, model).
func (f *Fig6) Point(width, regs int, model rename.Model) (Fig6Point, bool) {
	for _, pt := range f.Points {
		if pt.Width == width && pt.Regs == regs && pt.Model == model {
			return pt, true
		}
	}
	return Fig6Point{}, false
}

// Print renders the two panels.
func (f *Fig6) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: average commit IPC and %% of run cycles with no free registers\n")
	for _, width := range Widths {
		fmt.Fprintf(w, "\n%d-way issue (queue %d, lockup-free cache):\n", width, CostEffectiveQueue(width))
		fmt.Fprintf(w, "  %6s | %9s %9s | %9s %9s\n", "regs", "prec-IPC", "nofree%", "impr-IPC", "nofree%")
		for _, regs := range RegSizes {
			p, _ := f.Point(width, regs, rename.Precise)
			i, _ := f.Point(width, regs, rename.Imprecise)
			fmt.Fprintf(w, "  %6d | %9.2f %8.1f%% | %9.2f %8.1f%%\n",
				regs, p.CommitIPC, 100*p.NoFreeFrac, i.CommitIPC, 100*i.NoFreeFrac)
		}
	}
}

// Fig7Point is one x-position of Figure 7: average commit IPC for one cache
// organisation.
type Fig7Point struct {
	Width     int
	Regs      int
	Model     rename.Model
	Cache     cache.Kind
	CommitIPC float64
}

// Fig7 compares the three memory-system organisations across register-file
// sizes, for both widths and both exception models.
type Fig7 struct {
	Budget int64
	Points []Fig7Point
}

// Fig7 runs the cache-organisation sweep as one batch (its lockup-free
// points are Figure 6's, answered by the result table after a Figure 6).
func (s *Suite) Fig7() (*Fig7, error) {
	f := &Fig7{Budget: s.Budget}
	for _, model := range []rename.Model{rename.Imprecise, rename.Precise} {
		for _, kind := range []cache.Kind{cache.Perfect, cache.LockupFree, cache.Lockup} {
			for _, width := range Widths {
				for _, regs := range RegSizes {
					f.Points = append(f.Points, Fig7Point{Width: width, Regs: regs, Model: model, Cache: kind})
				}
			}
		}
	}
	runs, err := s.perBench(len(f.Points), func(i int, bench string) Spec {
		pt := f.Points[i]
		return Spec{Bench: bench, Width: pt.Width, Queue: CostEffectiveQueue(pt.Width),
			Regs: pt.Regs, Model: pt.Model, Cache: pt.Cache}
	})
	if err != nil {
		return nil, err
	}
	for i := range f.Points {
		for _, res := range runs[i] {
			f.Points[i].CommitIPC += res.CommitIPC()
		}
		f.Points[i].CommitIPC /= float64(len(runs[i]))
	}
	return f, nil
}

// Point returns the point for (width, regs, model, kind).
func (f *Fig7) Point(width, regs int, model rename.Model, kind cache.Kind) (Fig7Point, bool) {
	for _, pt := range f.Points {
		if pt.Width == width && pt.Regs == regs && pt.Model == model && pt.Cache == kind {
			return pt, true
		}
	}
	return Fig7Point{}, false
}

// Print renders panels (a) imprecise and (b) precise.
func (f *Fig7) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: average commit IPC for three data-cache organisations\n")
	for _, model := range []rename.Model{rename.Imprecise, rename.Precise} {
		fmt.Fprintf(w, "\n(%s exceptions)\n", model)
		fmt.Fprintf(w, "  %6s |", "regs")
		for _, width := range Widths {
			fmt.Fprintf(w, " %8s %8s %8s |", fmt.Sprintf("perf-%dw", width), "lkfree", "lockup")
		}
		fmt.Fprintln(w)
		for _, regs := range RegSizes {
			fmt.Fprintf(w, "  %6d |", regs)
			for _, width := range Widths {
				pf, _ := f.Point(width, regs, model, cache.Perfect)
				lf, _ := f.Point(width, regs, model, cache.LockupFree)
				lk, _ := f.Point(width, regs, model, cache.Lockup)
				fmt.Fprintf(w, " %8.2f %8.2f %8.2f |", pf.CommitIPC, lf.CommitIPC, lk.CommitIPC)
			}
			fmt.Fprintln(w)
		}
	}
}

// Fig8 is the compress case study: integer-register coverage under the three
// cache organisations (precise, 4-way, 32-entry queue, 2048 registers).
type Fig8 struct {
	Budget int64
	Dist   map[cache.Kind]stats.Dist
}

// Fig8 runs the three measurement configurations as one batch.
func (s *Suite) Fig8() (*Fig8, error) {
	kinds := []cache.Kind{cache.Perfect, cache.LockupFree, cache.Lockup}
	specs := make([]Spec, len(kinds))
	for i, kind := range kinds {
		specs[i] = measureSpec("compress", 4, CostEffectiveQueue(4))
		specs[i].Cache = kind
	}
	results, err := s.RunAll(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	f := &Fig8{Budget: s.Budget, Dist: map[cache.Kind]stats.Dist{}}
	for i, kind := range kinds {
		f.Dist[kind] = stats.Normalize(results[i].Live[isa.IntFile].Cum[rename.CatWaitPrecise])
	}
	return f, nil
}

// Print renders the three coverage curves.
func (f *Fig8) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: compress integer-register coverage (precise, 4-way, 32-entry queue)\n")
	grid := []int{30, 40, 50, 60, 70, 80, 90, 100, 120}
	fmt.Fprintf(w, "%-12s", "cache")
	for _, n := range grid {
		fmt.Fprintf(w, "%7d", n)
	}
	fmt.Fprintf(w, "%8s\n", "p90")
	for _, kind := range []cache.Kind{cache.Perfect, cache.LockupFree, cache.Lockup} {
		d := f.Dist[kind]
		fmt.Fprintf(w, "%-12s", kind)
		for _, n := range grid {
			fmt.Fprintf(w, "%6.1f%%", 100*d.CoverageAt(n))
		}
		fmt.Fprintf(w, "%8d\n", d.Percentile(0.90))
	}
}
