package exper

import (
	"fmt"
	"math"

	"regsim/internal/core"
	"regsim/internal/prog"
)

// Sampled simulation: run a measured prefix of ceil(Budget×SampleRate)
// commits, then splice the remaining commits analytically instead of
// simulating them.
//
// The prefix is run in two legs — half, then full — so the gap can be
// spliced with the steady-half IPC: the first half absorbs the cold-start
// transient (empty window, cold caches and predictor), and the second half
// approximates the machine's steady state.
//
// The extrapolated Result is an estimate, not a simulation: Cycles is
// prefix cycles plus gap commits over gap IPC, the activity counters are
// the prefix's scaled by total/measured commits, the stall counters (which
// count cycles) are the prefix's scaled by total/measured cycles so none
// exceeds Cycles, and Checksum remains the measured prefix's checksum
// (there is nothing sound to extrapolate a checksum to, and sampled
// results never enter the exact-result caches where a checksum contract
// would matter). Measured accuracy against exact runs is recorded in
// EXPERIMENTS.md and bounded by TestSampledFig6Error.

// runSampled simulates the measured prefix of spec and extrapolates the
// rest. The caller has already excluded tracking runs (histograms cannot be
// extrapolated) and detached the persistent caches.
func (s *Suite) runSampled(spec Spec, art *prog.Artifact, cfg core.Config) (*core.Result, error) {
	prefix := int64(math.Ceil(float64(spec.Budget) * s.SampleRate))
	m, err := core.NewFromArtifact(cfg, art)
	if err != nil {
		return nil, err
	}
	s.sims.Add(1)
	if prefix >= spec.Budget || prefix < 16 {
		// Nothing worth skipping (or a prefix too short to split): run the
		// whole budget exactly.
		return m.Run(spec.Budget)
	}
	warm, err := m.Run(prefix / 2)
	if err != nil {
		return nil, err
	}
	meas, err := m.Run(prefix)
	if err != nil {
		return nil, err
	}
	if meas.Halted || meas.Committed >= spec.Budget {
		// The program finished inside the prefix: the "sample" is the run.
		return meas, nil
	}
	gapIPC := float64(meas.Committed-warm.Committed) / float64(meas.Cycles-warm.Cycles)
	if meas.Cycles == warm.Cycles {
		gapIPC = float64(meas.Committed) / float64(meas.Cycles)
	}
	if !(gapIPC > 0) {
		return nil, fmt.Errorf("exper: sampled run of %s measured non-positive IPC", spec.Bench)
	}
	return extrapolate(meas, spec.Budget, gapIPC), nil
}

// scaleCount scales a counter by a total/measured ratio.
func scaleCount(n int64, ratio float64) int64 {
	return int64(math.Round(float64(n) * ratio))
}

// extrapolate builds the estimated full-budget Result from a measured
// prefix and the IPC to assume across the unsimulated gap.
func extrapolate(meas *core.Result, budget int64, gapIPC float64) *core.Result {
	res := *meas // sampled runs never track, so there are no slices to share
	remaining := budget - meas.Committed
	ratio := float64(budget) / float64(meas.Committed)

	res.Cycles = meas.Cycles + int64(math.Round(float64(remaining)/gapIPC))
	res.Committed = budget
	res.Issued = scaleCount(meas.Issued, ratio)
	res.IssuedLoads = scaleCount(meas.IssuedLoads, ratio)
	res.IssuedStores = scaleCount(meas.IssuedStores, ratio)
	res.IssuedCondBr = scaleCount(meas.IssuedCondBr, ratio)
	res.CommittedLoads = scaleCount(meas.CommittedLoads, ratio)
	res.CommittedCondBr = scaleCount(meas.CommittedCondBr, ratio)
	res.LoadMisses = scaleCount(meas.LoadMisses, ratio)
	res.ForwardedLoads = scaleCount(meas.ForwardedLoads, ratio)
	res.Mispredicts = scaleCount(meas.Mispredicts, ratio)
	res.ICacheAccesses = scaleCount(meas.ICacheAccesses, ratio)
	res.ICacheMisses = scaleCount(meas.ICacheMisses, ratio)
	res.DCache.LoadAccesses = scaleCount(meas.DCache.LoadAccesses, ratio)
	res.DCache.LoadMisses = scaleCount(meas.DCache.LoadMisses, ratio)
	res.DCache.StoreProbes = scaleCount(meas.DCache.StoreProbes, ratio)
	res.DCache.StoreHits = scaleCount(meas.DCache.StoreHits, ratio)
	res.DCache.FillsStarted = scaleCount(meas.DCache.FillsStarted, ratio)
	res.DCache.FillsMerged = scaleCount(meas.DCache.FillsMerged, ratio)
	res.DCache.FillsDropped = scaleCount(meas.DCache.FillsDropped, ratio)
	cycleRatio := float64(res.Cycles) / float64(meas.Cycles)
	res.NoFreeRegCycles = scaleCount(meas.NoFreeRegCycles, cycleRatio)
	res.DispatchRegStalls = scaleCount(meas.DispatchRegStalls, cycleRatio)
	res.DispatchQueueFullStalls = scaleCount(meas.DispatchQueueFullStalls, cycleRatio)
	res.WriteBufferStalls = scaleCount(meas.WriteBufferStalls, cycleRatio)
	return &res
}
