package twin_test

import (
	"math"
	"sync"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/twin"
)

const testBudget = 10_000

func newModel(t testing.TB) (*exper.Suite, *twin.Model) {
	t.Helper()
	suite := exper.NewSuite(testBudget)
	return suite, twin.New(suite)
}

func baseSpec() exper.Spec {
	return exper.Spec{
		Bench: "compress", Width: 4, Queue: 32, Regs: 64,
		Model: rename.Precise, Cache: cache.LockupFree,
	}
}

func TestEstimateBasic(t *testing.T) {
	_, m := newModel(t)
	spec := baseSpec()
	est, err := m.Estimate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !(est.IPC > 0 && est.IPC <= float64(spec.Width)) {
		t.Errorf("IPC %v outside (0, %d]", est.IPC, spec.Width)
	}
	if est.CPI <= 0 || math.Abs(est.CPI*est.IPC-1) > 1e-9 {
		t.Errorf("CPI %v is not 1/IPC %v", est.CPI, est.IPC)
	}
	// Dataflow lower bound: budget commits cannot finish faster than
	// width per cycle.
	if minCycles := int64(math.Ceil(testBudget / float64(spec.Width))); est.Cycles < minCycles {
		t.Errorf("cycles %d below the dataflow lower bound %d", est.Cycles, minCycles)
	}
	if est.BIPS <= 0 || est.IntCycleNS <= 0 {
		t.Errorf("BIPS %v / cycle time %v must be positive", est.BIPS, est.IntCycleNS)
	}
	if est.Bounds.WidthIPC <= 0 || est.Bounds.QueueIPC <= 0 {
		t.Errorf("bounds breakdown not populated: %+v", est.Bounds)
	}
}

// TestCalibrationMemoized: repeated estimates for one (bench, width) pair
// calibrate exactly once — one anchor batch total, everything after is
// closed-form. Each anchor is either simulated or answered by a finished
// sibling anchor (which one depends on scheduling), so the two counters
// together must account for the batch exactly.
func TestCalibrationMemoized(t *testing.T) {
	suite, m := newModel(t)
	batch := int64(twin.CalibrationRunsPerPair())
	spec := baseSpec()
	for i := 0; i < 5; i++ {
		spec.Regs = 48 + 16*i
		if _, err := m.Estimate(spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := suite.SweepStats(); st.Runs+st.Shared != batch {
		t.Errorf("5 estimates over one (bench,width) ran %d simulations and shared %d, want exactly the %d calibration runs",
			st.Runs, st.Shared, batch)
	}
	if reqs := m.CalibrationRuns(); reqs != batch {
		t.Errorf("CalibrationRuns = %d, want %d", reqs, batch)
	}
}

// TestCalibrationConcurrent: concurrent first callers coalesce onto one
// calibration batch (exercised under -race in tier-1).
func TestCalibrationConcurrent(t *testing.T) {
	suite, m := newModel(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(regs int) {
			defer wg.Done()
			spec := baseSpec()
			spec.Regs = 32 + regs
			if _, err := m.Estimate(spec); err != nil {
				t.Error(err)
			}
		}(i * 8)
	}
	wg.Wait()
	if st, batch := suite.SweepStats(), int64(twin.CalibrationRunsPerPair()); st.Runs+st.Shared != batch {
		t.Errorf("concurrent estimates ran %d simulations and shared %d, want the %d-run calibration batch",
			st.Runs, st.Shared, batch)
	}
}

// TestMonotoneByConstruction: the metamorphic orderings the verify suite
// checks against the simulator hold exactly on the twin, by construction.
func TestMonotoneByConstruction(t *testing.T) {
	_, m := newModel(t)
	ipc := func(t *testing.T, spec exper.Spec) float64 {
		t.Helper()
		est, err := m.Estimate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return est.IPC
	}
	t.Run("Registers", func(t *testing.T) {
		prev := 0.0
		for _, regs := range []int{32, 40, 48, 64, 80, 96, 128, 256, 2048} {
			spec := baseSpec()
			spec.Regs = regs
			if got := ipc(t, spec); got < prev {
				t.Errorf("IPC decreased from %v to %v at regs=%d", prev, got, regs)
			} else {
				prev = got
			}
		}
	})
	t.Run("Queue", func(t *testing.T) {
		prev := 0.0
		for _, q := range []int{1, 4, 8, 16, 32, 64, 128, 256, 512, 4096} {
			spec := baseSpec()
			spec.Queue = q
			if got := ipc(t, spec); got < prev {
				t.Errorf("IPC decreased from %v to %v at queue=%d", prev, got, q)
			} else {
				prev = got
			}
		}
	})
	t.Run("CacheOrdering", func(t *testing.T) {
		prev := 0.0
		for _, kind := range []cache.Kind{cache.Lockup, cache.LockupFree, cache.Perfect} {
			spec := baseSpec()
			spec.Cache = kind
			if got := ipc(t, spec); got < prev {
				t.Errorf("IPC decreased from %v to %v at cache=%s", prev, got, kind)
			} else {
				prev = got
			}
		}
	})
	t.Run("ImpreciseAtLeastPrecise", func(t *testing.T) {
		spec := baseSpec()
		spec.Regs = 40 // small enough that register pressure binds
		precise := ipc(t, spec)
		spec.Model = rename.Imprecise
		if imprecise := ipc(t, spec); imprecise < precise {
			t.Errorf("imprecise IPC %v < precise %v at equal resources", imprecise, precise)
		}
	})
}

func TestEstimateRejectsIllegalSpecs(t *testing.T) {
	_, m := newModel(t)
	spec := baseSpec()
	spec.Regs = 16
	if _, err := m.Estimate(spec); err == nil {
		t.Error("regs below the architectural floor must be rejected")
	}
	spec = baseSpec()
	spec.Queue = 0
	if _, err := m.Estimate(spec); err == nil {
		t.Error("non-positive queue must be rejected")
	}
	spec = baseSpec()
	spec.Bench = "no-such-bench"
	if _, err := m.Estimate(spec); err == nil {
		t.Error("unknown benchmark must surface the calibration error")
	}
}

// BenchmarkEstimateWarm measures the closed-form fast path (calibration
// already memoized) — the twin's headline latency number in EXPERIMENTS.md.
func BenchmarkEstimateWarm(b *testing.B) {
	_, m := newModel(b)
	spec := baseSpec()
	if _, err := m.Estimate(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Regs = 32 + i%128
		if _, err := m.Estimate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
