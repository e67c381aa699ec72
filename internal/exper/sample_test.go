package exper

import (
	"fmt"
	"math"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
)

// SampledIPCErrorCeiling is the committed accuracy bound for sampled
// simulation on the Figure 6 probe set below (rate 0.2): the worst-case
// relative commit-IPC error versus the exact run. CI's sampled-mode smoke
// runs TestSampledFig6Error, so an estimator or splice change that degrades
// accuracy past this bound fails the build rather than silently skewing
// figures. Measured error tables live in EXPERIMENTS.md.
const SampledIPCErrorCeiling = 0.15

// sampledProbeSpecs is a Figure 6 slice: both benches' families, both
// models, a large and a small register file.
func sampledProbeSpecs() []Spec {
	var specs []Spec
	for _, bench := range []string{"compress", "tomcatv"} {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			for _, regs := range []int{256, 48} {
				specs = append(specs, Spec{
					Bench: bench, Width: 4, Queue: 32, Regs: regs,
					Model: model, Cache: cache.LockupFree,
				})
			}
		}
	}
	return specs
}

// TestSampledFig6Error bounds sampled-mode error at each budget whose
// error and wall time EXPERIMENTS.md records.
func TestSampledFig6Error(t *testing.T) {
	for _, budget := range []int64{20_000, 50_000, 200_000} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			if testing.Short() && budget > 20_000 {
				t.Skip("simulates the probe set exactly at a long budget")
			}
			exact := NewSuite(budget)
			sampled := NewSuite(budget)
			sampled.SampleRate = 0.2

			worst := 0.0
			for _, spec := range sampledProbeSpecs() {
				want, err := exact.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sampled.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if got.Committed != budget {
					t.Errorf("%s: sampled result reports %d commits, want the full budget %d", goldenKey(spec), got.Committed, budget)
				}
				rel := math.Abs(got.CommitIPC()-want.CommitIPC()) / want.CommitIPC()
				t.Logf("%-45s exact %.3f sampled %.3f err %.1f%%", goldenKey(spec), want.CommitIPC(), got.CommitIPC(), 100*rel)
				if rel > worst {
					worst = rel
				}
			}
			t.Logf("worst relative IPC error: %.1f%% (ceiling %.0f%%)", 100*worst, 100*SampledIPCErrorCeiling)
			if worst > SampledIPCErrorCeiling {
				t.Errorf("sampled-mode worst relative IPC error %.1f%% exceeds the committed ceiling %.0f%%", 100*worst, 100*SampledIPCErrorCeiling)
			}
		})
	}
}

// TestSampledStallsWithinCycles: the stall counters count cycles, so an
// extrapolated result must never report more of them than it has cycles.
// Register-starved runs, stalled for nearly the whole run, are where
// scaling them by the commit ratio overshot.
func TestSampledStallsWithinCycles(t *testing.T) {
	s := NewSuite(20_000)
	s.SampleRate = 0.2
	for _, bench := range []string{"su2cor", "tomcatv", "gcc1"} {
		spec := Spec{Bench: bench, Width: 4, Queue: 32, Regs: 32,
			Model: rename.Precise, Cache: cache.LockupFree}
		res, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]int64{
			"NoFreeRegCycles":         res.NoFreeRegCycles,
			"DispatchRegStalls":       res.DispatchRegStalls,
			"DispatchQueueFullStalls": res.DispatchQueueFullStalls,
			"WriteBufferStalls":       res.WriteBufferStalls,
		} {
			if n > res.Cycles {
				t.Errorf("%s: %s = %d exceeds the %d cycles of the run", goldenKey(spec), name, n, res.Cycles)
			}
		}
	}
}

// TestSampledLeavesCachesAlone pins the cache-hygiene contract: sampled
// results are estimates and must never be written into (or served from)
// the exact-result stores.
func TestSampledLeavesCachesAlone(t *testing.T) {
	spec := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 80,
		Model: rename.Precise, Cache: cache.LockupFree}

	s := NewSuite(20_000)
	s.SampleRate = 0.2
	store, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = store
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("sampled run touched the persistent result cache: %+v", st)
	}

	// Tracking runs are exempt from sampling entirely (histograms cannot be
	// extrapolated): a tracked spec under a sampling suite runs exactly.
	tracked := spec
	tracked.Track = true
	tracked.Regs = MeasureRegs
	res, err := s.Run(tracked)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live[0].TotalLive()) == 0 {
		t.Error("tracked run under a sampling suite lost its histograms")
	}
}
