package core

import (
	"testing"

	"regsim/internal/cache"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// TestZeroAllocSteadyState pins the scheduler's zero-allocation contract:
// once the window, dispatch-queue buckets, store/branch queues, and rename
// chains have grown to their working size, a simulated cycle must not touch
// the heap at all. The event-driven wakeup/select rewrite depends on this —
// waiter chains are intrusive links inside window slots and free lists are
// recycled in place — so any regression here shows up as GC time in the
// sweep benchmarks long before it shows up as a failed test elsewhere.
//
// The data cache is Perfect: the lockup-free organisation allocates a *Fill
// per outstanding miss by design (misses are rare and the fill carries a
// variable-length waiter list), and that deliberate allocation would drown
// the scheduler signal this test is about.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model rename.Model
		track bool
	}{
		// Each (model, track) pair keeps different rename bookkeeping:
		// untracked precise keeps no categories, kills or chains; untracked
		// imprecise keeps kills and chains, its freeing rule; tracked runs
		// keep everything plus the live and port histograms. Every one must
		// be allocation-free.
		{"precise", rename.Precise, false},
		{"imprecise", rename.Imprecise, false},
		{"precise-tracked", rename.Precise, true},
		{"imprecise-tracked", rename.Imprecise, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := workload.Build("compress")
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			cfg := DefaultConfig()
			cfg.Width = 4
			cfg.QueueSize = 32
			cfg.RegsPerFile = 64
			cfg.Model = tc.model
			cfg.TrackLiveRegisters = tc.track
			cfg.DCache = cfg.DCache.WithKind(cache.Perfect)
			m, err := New(cfg, p)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Warm up: let the window, queues, and rename chains reach
			// their steady-state capacity.
			for i := 0; i < 20_000; i++ {
				m.step()
			}
			if m.done {
				t.Fatal("workload halted during warm-up; steady-state measurement needs a live machine")
			}
			allocs := testing.AllocsPerRun(2_000, func() { m.step() })
			if m.done {
				t.Fatal("workload halted during measurement")
			}
			if allocs != 0 {
				t.Fatalf("steady-state cycle allocates: %v allocs/cycle, want 0", allocs)
			}
		})
	}
}
