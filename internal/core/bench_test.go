package core

import (
	"fmt"
	"testing"

	"regsim/internal/workload"
)

// BenchmarkCycleLoop measures the bare scheduler inner loop at each width ×
// dispatch-queue-size point, over the paper's queue range (Figs. 3-9 go up
// to 256 entries). The workload is compress, an integer benchmark with real
// mispredictions and cache misses, so recovery and wakeup paths run, not
// just the happy path. The register file is the measurement size (2048, as
// exper.MeasureRegs), so the dispatch queue, not register starvation, is the
// binding structure. One op is a 50000-commit run: long enough that warm-up
// (cold caches, untrained predictor, growing window) is amortised away and
// the steady-state cycle cost dominates. Reported beside ns/op: ns/cycle,
// simcycles/s and instr/s.
func BenchmarkCycleLoop(b *testing.B) {
	const budget = 50_000
	p, err := workload.Build("compress")
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{4, 8} {
		for _, queue := range []int{8, 32, 128, 256} {
			b.Run(fmt.Sprintf("w%d/q%d", width, queue), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Width = width
				cfg.QueueSize = queue
				cfg.RegsPerFile = 2048
				var cycles, committed int64
				for i := 0; i < b.N; i++ {
					m, err := New(cfg, p)
					if err != nil {
						b.Fatal(err)
					}
					res, err := m.Run(budget)
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
			})
		}
	}
}
