// Package benchrun defines the repository's benchmark trajectory as plain
// functions over *testing.B, so the same measurement code runs both under
// `go test -bench` (the root bench_test.go entry points) and inside
// cmd/bench, which drives the suite through testing.Benchmark and records
// the results as BENCH_core.json.
//
// Two kinds of case:
//
//   - Experiment benchmarks (Table1, Fig3, Fig6) run a whole figure's sweep
//     end-to-end through exper.Suite at a reduced commit budget — the
//     numbers the north-star "fast as the hardware allows" goal tracks.
//   - CycleLoop microbenchmarks run the bare machine at each width ×
//     dispatch-queue-size point with a large register file, so the cost of
//     the scheduler inner loop is measured directly as ns and allocations
//     per simulated cycle, isolated from sweep orchestration.
package benchrun

import (
	"fmt"
	"testing"

	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/workload"
)

// SuiteBudget is the per-run commit budget for the experiment benchmarks
// (kept small so one iteration stays around a second).
const SuiteBudget = 3_000

// CycleLoopBudget is the commit budget for one CycleLoop iteration: long
// enough that warm-up (cold caches, untrained predictor, growing window)
// is amortised away and the steady-state cycle cost dominates.
const CycleLoopBudget = 50_000

// CycleLoopBench is the workload the scheduler microbenchmark runs: an
// integer benchmark with real mispredictions and cache misses, so recovery
// and wakeup paths are exercised, not just the happy path.
const CycleLoopBench = "compress"

// CycleLoopQueues are the dispatch-queue sizes measured, matching the
// paper's sweep range (Figs. 3-9 go up to 256 entries).
var CycleLoopQueues = []int{8, 32, 128, 256}

// Case is one named benchmark.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Table1 regenerates the dynamic-statistics table (18 runs).
func Table1(budget int64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := exper.NewSuite(budget)
			if _, err := s.Table1(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig3 regenerates the dispatch-queue sweep (108 measurement runs with
// live-register classification).
func Fig3(budget int64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := exper.NewSuite(budget)
			if _, err := s.Fig3(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig6 regenerates the register-file size sweep (288 runs).
func Fig6(budget int64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := exper.NewSuite(budget)
			if _, err := s.Fig6(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig6Cold runs the register-file size sweep over a fresh on-disk
// checkpoint store each iteration: every simulated run stores one snapshot
// of its configuration and none resumes, so the delta against Fig6 is what
// snapshot capture costs a cold sweep. Both this and Fig6 share
// pressure-free results between siblings (the suite does that in every
// sweep).
func Fig6Cold(budget int64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := ckpt.OpenStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s := exper.NewSuite(budget)
			s.Checkpoints = store
			if _, err := s.Fig6(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig6Checkpointed measures a repeat sweep over a populated checkpoint
// store without a result cache: one untimed sweep fills the store, then
// each timed iteration regenerates the figure on a fresh suite, every
// simulated run resuming from its configuration's snapshot, read back from
// disk one commit bundle short of the budget — the shape of a second
// `cmd/paper -no-cache -checkpoint-dir` invocation.
func Fig6Checkpointed(budget int64) func(b *testing.B) {
	return func(b *testing.B) {
		store, err := ckpt.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		warm := exper.NewSuite(budget)
		warm.Checkpoints = store
		if _, err := warm.Fig6(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := exper.NewSuite(budget)
			s.Checkpoints = store
			if _, err := s.Fig6(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// CycleLoop measures the bare simulator at one width × queue-size point.
// The register file is the measurement size (2048) so the dispatch queue —
// not register starvation — is the binding structure, and the per-cycle
// scheduler cost at high occupancy is what the clock sees. Reported
// metrics: ns/cycle, simcycles/s, and instr/s alongside the standard
// ns/op and allocs/op (one op = one CycleLoopBudget-commit run).
func CycleLoop(width, queue int) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := workload.Build(CycleLoopBench)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Width = width
		cfg.QueueSize = queue
		cfg.RegsPerFile = exper.MeasureRegs
		var cycles, committed int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.New(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(CycleLoopBudget)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
			committed += res.Committed
		}
		sec := b.Elapsed().Seconds()
		if sec > 0 && cycles > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			b.ReportMetric(float64(cycles)/sec, "simcycles/s")
			b.ReportMetric(float64(committed)/sec, "instr/s")
		}
	}
}

// CycleLoopCases returns the scheduler microbenchmark grid.
func CycleLoopCases() []Case {
	var cases []Case
	for _, width := range []int{4, 8} {
		for _, queue := range CycleLoopQueues {
			cases = append(cases, Case{
				Name: fmt.Sprintf("w%d/q%d", width, queue),
				Fn:   CycleLoop(width, queue),
			})
		}
	}
	return cases
}

// Suite returns every case cmd/bench records: the experiment benchmarks at
// SuiteBudget plus the CycleLoop grid.
func Suite() []Case {
	cases := []Case{
		{Name: "Table1", Fn: Table1(SuiteBudget)},
		{Name: "Fig3", Fn: Fig3(SuiteBudget)},
		{Name: "Fig6", Fn: Fig6(SuiteBudget)},
		{Name: "Fig6Cold", Fn: Fig6Cold(SuiteBudget)},
		{Name: "Fig6Checkpointed", Fn: Fig6Checkpointed(SuiteBudget)},
	}
	for _, c := range CycleLoopCases() {
		cases = append(cases, Case{Name: "CycleLoop/" + c.Name, Fn: c.Fn})
	}
	return cases
}
