package regsim

// One testing.B benchmark per table and figure of the paper, each running
// the corresponding experiment end-to-end at a reduced commit budget, plus
// microbenchmarks of the simulator itself. The cycle-loop grid
// (BenchmarkCycleLoop) sits beside the code it measures, in internal/core;
// regbench/ times the shipped binaries at stationary budgets.
//
// Regenerate the full-budget tables and figures with:
//
//	go run ./cmd/paper -n 200000 all
//
// and the benchmark versions with:
//
//	go test -bench=. -benchmem

import (
	"testing"

	"regsim/internal/exper"
)

// benchBudget keeps each harness iteration around a second on a laptop
// while still exercising every configuration of the experiment.
const benchBudget = 3_000

func reportIPC(b *testing.B, committed, cycles int64) {
	if cycles > 0 {
		b.ReportMetric(float64(committed)/float64(cycles), "IPC")
	}
}

// BenchmarkTable1 regenerates the dynamic-statistics table (18 runs).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the dispatch-queue sweep (108 measurement runs
// with live-register classification).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the averaged register-usage coverage curves.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the tomcatv case study.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the register-file size sweep (288 specs). This
// plain sweep includes sibling sharing: like every sweep, it answers a spec
// from a finished pressure-free sibling instead of simulating it.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the cache-organisation comparison (864 runs,
// sharing the lockup-free third with Figure 6 via memoisation).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the compress cache case study.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the timing/BIPS figure (the Figure 6 sweep plus
// the analytical timing model).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Fig10(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the six design-assumption ablation studies
// (branch issue order, predictor components, MSHR counts, write-buffer
// bandwidth, insertion/commit bandwidth, fetch latency).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.RunAblations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindings regenerates the paper's §4 conclusions end to end.
func BenchmarkFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exper.NewSuite(benchBudget)
		if _, err := s.Findings(nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator4Way measures raw simulation throughput (committed
// instructions per second) on the baseline machine.
func BenchmarkSimulator4Way(b *testing.B) {
	p, err := Workload("compress")
	if err != nil {
		b.Fatal(err)
	}
	const n = 50_000
	b.SetBytes(0)
	var cycles, committed int64
	for i := 0; i < b.N; i++ {
		res, err := Run(DefaultConfig(), p, n)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		committed += res.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instr/s")
	reportIPC(b, committed, cycles)
}

// BenchmarkSimulator8WayTracked measures the 8-way machine with
// live-register histogram tracking (the measurement-run configuration).
func BenchmarkSimulator8WayTracked(b *testing.B) {
	p, err := Workload("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Width = 8
	cfg.QueueSize = 64
	cfg.RegsPerFile = 2048
	cfg.TrackLiveRegisters = true
	var committed int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, p, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkTimingModel measures the analytical register-file model.
func BenchmarkTimingModel(b *testing.B) {
	params := DefaultTimingParams()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		for _, n := range []int{32, 80, 128, 256} {
			sink += params.CycleTime(n, PortsForWidth(4, false))
			sink += params.CycleTime(n, PortsForWidth(8, false))
		}
	}
	if sink <= 0 {
		b.Fatal("model returned nonpositive times")
	}
}
