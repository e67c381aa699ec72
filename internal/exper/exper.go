// Package exper orchestrates the paper's experiments: it maps every table
// and figure of Farkas, Jouppi & Chow (WRL 95/10) to the machine
// configurations that produce it, runs the simulations, and renders the same
// rows and series the paper reports.
//
// Experiment index (see DESIGN.md §5):
//
//	Table 1  — per-benchmark dynamic statistics at both issue widths.
//	Figure 3 — IPC and 90th-percentile live registers vs dispatch-queue
//	           size, decomposed into the four register states.
//	Figure 4 — average register-usage coverage curves, precise vs
//	           imprecise, integer and FP files, both widths.
//	Figure 5 — tomcatv FP-register coverage (8-way, 64-entry queue).
//	Figure 6 — commit IPC and register pressure vs register-file size.
//	Figure 7 — commit IPC for perfect / lockup-free / lockup caches.
//	Figure 8 — compress integer-register coverage under the three caches.
//	Figure 10 — register-file cycle time and BIPS vs register-file size.
//
// Like the paper (whose Figure 2 machine model runs precise exceptions with
// an "imprecise exception estimation of register usage"), the register-usage
// figures (3, 4, 5, 8) come from precise-model runs with a large (2048)
// register file and passive classification; the performance figures (6, 7,
// 10) run real machines under each exception model and register-file size.
//
// Execution rides on the sweep subsystem (internal/sweep): each figure runs
// its spec matrix as one batch across a bounded worker pool, one bounded
// table (table.go) keeps every answer for figures that share configurations
// and lets runs that never saw register pressure answer their register-file
// and exception-model siblings (siblings.go), and an optional persistent
// result cache (internal/sweep/rescache) makes repeat sweeps near-instant.
package exper

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"regsim/internal/cache"
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/obs"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/sweep"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/workload"
)

// MeasureRegs is the register-file size used for usage-measurement runs; the
// paper uses 2048 so that fewer than 1% of cycles stall for registers.
const MeasureRegs = 2048

// CostEffectiveQueue returns the paper's cost-effective dispatch-queue size
// for an issue width (32 entries for 4-way, 64 for 8-way; §3.1).
func CostEffectiveQueue(width int) int { return width * 8 }

// Spec identifies one simulation run. It is also the serving layer's wire
// format (`POST /v1/simulate` bodies decode straight into a Spec), so every
// field must stay exported and JSON-round-trippable — Model and Cache encode
// as their names via TextMarshaler — and additions need json tags (see
// TestSpecJSONRoundTrip).
type Spec struct {
	Bench  string       `json:"bench"`
	Width  int          `json:"width"`
	Queue  int          `json:"queue"`
	Regs   int          `json:"regs"`
	Model  rename.Model `json:"model"`
	Cache  cache.Kind   `json:"cache"`
	Track  bool         `json:"track,omitempty"`
	Budget int64        `json:"budget,omitempty"`
}

// Config converts the spec to the machine configuration it denotes: the
// paper's baseline machine with the spec's axes applied. It is the single
// Spec→Config translation, shared by the suite's simulations and by the
// verification subsystem's metamorphic properties.
func (spec Spec) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Width = spec.Width
	cfg.QueueSize = spec.Queue
	cfg.RegsPerFile = spec.Regs
	cfg.Model = spec.Model
	cfg.DCache = cfg.DCache.WithKind(spec.Cache)
	cfg.TrackLiveRegisters = spec.Track
	return cfg
}

// Suite runs simulations on the sweep subsystem: figure generators run their
// spec matrices as batches across Jobs workers, the bounded result table
// answers repeats and, from finished pressure-free runs, their siblings
// (specs differing only in register-file size and exception model), and an
// optional persistent result cache answers repeat runs across processes.
// Figures that share configurations (e.g. Figure 7's lockup-free points and
// Figure 6) therefore reuse results automatically.
//
// A Suite is safe for concurrent use once running: Run may be called from
// any number of goroutines and identical specs coalesce onto one execution.
// The exported configuration fields, however, must be set before the first
// Run/figure call and left alone afterwards.
type Suite struct {
	// Budget is the per-run commit budget used when a Spec leaves
	// Budget zero.
	Budget int64
	// Jobs bounds how many simulations execute concurrently during a
	// batch (0 = GOMAXPROCS). Results are deterministic
	// regardless of Jobs: simulations are independent and seeded.
	Jobs int
	// Cache, when non-nil, persists results across processes. Entries
	// are keyed by a fingerprint of the spec, its budget, and the
	// simulator/workload version strings, so a stale cache can never
	// serve results for different code.
	Cache *rescache.Store
	// Progress, when non-nil, receives a line per completed run. It is
	// called from worker goroutines but never concurrently.
	Progress func(string)
	// Heartbeat, when non-nil, receives in-run progress heartbeats
	// (labelled with the running spec and worker) every HeartbeatEvery
	// cycles — the live view into sweeps whose individual runs take
	// minutes. Serialised like Progress.
	Heartbeat telemetry.ProgressFunc
	// HeartbeatEvery is the heartbeat period in cycles (default 1<<20).
	HeartbeatEvery int64
	// Checkpoints, when non-nil, enables cross-budget fast-forwarding: each
	// configuration keeps one full-fidelity machine snapshot, the deepest a
	// run of it stored, and a later run at the same or a larger budget
	// resumes from it instead of simulating the prefix again (see
	// internal/exper/checkpoint.go). Every resumed result is bit-identical
	// to the cold run's, which TestCheckpointedGoldens enforces against the
	// golden corpus.
	Checkpoints *ckpt.Store
	// SampleRate, when in (0, 1), switches non-tracking runs to sampled
	// simulation: only ceil(Budget×SampleRate) commits are simulated and
	// the rest is extrapolated (see internal/exper/sample.go). Sampled
	// results are estimates — they bypass the persistent result cache and
	// the checkpoint store entirely, and their accuracy is reported in
	// EXPERIMENTS.md rather than promised.
	SampleRate float64

	engOnce sync.Once
	eng     *sweep.Engine[Spec, *core.Result]
	progMu  sync.Mutex
	sims    atomic.Int64 // simulations actually executed (cache misses)

	// Every answer simulate returned and the sibling sources among them,
	// and the number of requests a sibling source answered.
	table  resultTable
	shared atomic.Int64

	// Built program artifacts (workload plus predecoded instruction
	// table), shared across the suite's runs. An Artifact is immutable
	// (the machine copies the data image into a fresh memory and aliases
	// the predecode table read-only), so one build serves every spec over
	// the same benchmark instead of regenerating and re-decoding it per
	// run.
	workMu sync.Mutex
	arts   map[string]*prog.Artifact
}

// NewSuite returns a Suite with the given default per-run commit budget.
func NewSuite(budget int64) *Suite {
	return &Suite{Budget: budget}
}

// normalize fills the suite-level default budget, so that equivalent specs
// land on the same table and cache entries.
func (s *Suite) normalize(spec Spec) Spec {
	if spec.Budget == 0 {
		spec.Budget = s.Budget
	}
	return spec
}

// engine lazily builds the sweep engine so that Jobs/Cache set after
// NewSuite still take effect.
func (s *Suite) engine() *sweep.Engine[Spec, *core.Result] {
	s.engOnce.Do(func() {
		s.eng = sweep.New(s.Jobs, s.simulate)
		// A traced request that piggybacks on an in-flight execution of the
		// same spec records the wait as a "coalesce" span linked to the
		// leader's span — so when a leader is killed by its own deadline,
		// its victims' traces still say whose execution they died waiting
		// on. Untraced callers (the batch CLIs) return a nil span whose
		// methods no-op.
		s.eng.OnCoalesce = func(waiter, leader context.Context) func() {
			sp, _ := obs.StartSpan(waiter, "coalesce")
			if sp == nil {
				return nil
			}
			sp.LinkTo(obs.FromContext(leader))
			return sp.End
		}
	})
	return s.eng
}

// Run simulates one spec. Identical specs — across calls, goroutines, and
// (with a Cache) processes — simulate once while a store keeps the answer.
func (s *Suite) Run(spec Spec) (*core.Result, error) {
	return s.RunContext(context.Background(), spec)
}

// RunContext is Run under a caller-supplied context: cancellation or a
// deadline aborts the simulation mid-run (the machine polls the context
// every few thousand cycles). Identical concurrent specs still coalesce onto
// one execution; a caller whose context expires while piggybacking gets its
// own context error, and an execution killed by one caller's deadline is
// retried transparently for callers that are still live.
func (s *Suite) RunContext(ctx context.Context, spec Spec) (*core.Result, error) {
	spec = s.normalize(spec)
	if res, ok := s.table.get(spec); ok {
		return res, nil
	}
	return s.engine().Do(ctx, spec)
}

// RunAll simulates a batch of specs and returns results in spec order. The
// result table answers the specs it holds, duplicate specs coalesce, at most
// Jobs simulations run concurrently, and the first failure (or the context's
// cancellation/deadline) cancels the rest of the batch. Figures and the
// serving layer's `/v1/sweep` run their batches here.
//
// The rest executes trunk-first: largest register file first, precise before
// imprecise, otherwise in request order. The runs that can answer their
// siblings thus tend to finish before those siblings start; one that has not
// finished yet only costs the sibling a simulation, never a different result.
func (s *Suite) RunAll(ctx context.Context, specs []Spec) ([]*core.Result, error) {
	out := make([]*core.Result, len(specs))
	var order []int // the specs the table does not hold
	for i, spec := range specs {
		var ok bool
		if out[i], ok = s.table.get(s.normalize(spec)); !ok {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(specs[b].Regs, specs[a].Regs); c != 0 {
			return c
		}
		return cmp.Compare(specs[a].Model, specs[b].Model)
	})
	norm := make([]Spec, len(order))
	for j, i := range order {
		norm[j] = s.normalize(specs[i])
	}
	done, err := s.engine().DoAll(ctx, norm)
	if err != nil {
		return nil, err
	}
	for j, i := range order {
		out[i] = done[j]
	}
	return out, nil
}

// progressf emits one serialised Progress line.
func (s *Suite) progressf(format string, args ...any) {
	if s.Progress == nil {
		return
	}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.Progress(fmt.Sprintf(format, args...))
}

// Fingerprint is the content address of one fully-specified spec: the hex
// SHA-256 the persistent result cache keys entries by. The cluster router
// hashes the fingerprint of a spec's SiblingGroup, so requests for one spec,
// and for its siblings, always prefer the worker whose result table and
// disk cache already hold its result. The spec should have all fields
// set (in particular a non-zero Budget); the suite fingerprints specs only
// after normalize fills the budget in.
func Fingerprint(spec Spec) string { return fingerprint(spec) }

// fingerprint is the persistent-cache key: everything that can change a
// spec's result, including the behavioural versions of the simulator and
// the workload generators. Model and cache kind are encoded as strings so
// reordering the enums cannot silently alias old entries.
func fingerprint(spec Spec) string {
	return rescache.Fingerprint(struct {
		Sim      string `json:"sim"`
		Workload string `json:"workload"`
		Prog     string `json:"prog"`
		Ckpt     string `json:"ckpt"`
		Bench    string `json:"bench"`
		Width    int    `json:"width"`
		Queue    int    `json:"queue"`
		Regs     int    `json:"regs"`
		Model    string `json:"model"`
		Cache    string `json:"cache"`
		Track    bool   `json:"track"`
		Budget   int64  `json:"budget"`
	}{
		Sim: core.Version, Workload: workload.Version,
		// The artifact and checkpoint format versions are key material
		// even though a cached Result carries neither: a result may have
		// been produced via predecoded artifacts and checkpoint resume,
		// so a behavioural bug fixed in either layer must invalidate the
		// results it could have tainted.
		Prog: prog.ArtifactVersion, Ckpt: ckpt.Version,
		Bench: spec.Bench, Width: spec.Width, Queue: spec.Queue, Regs: spec.Regs,
		Model: spec.Model.String(), Cache: spec.Cache.String(),
		Track: spec.Track, Budget: spec.Budget,
	})
}

// artifact returns the shared program artifact for bench — the built
// workload plus its predecoded instruction table — building it at most once
// per suite. Machines constructed from the artifact alias its predecode
// table read-only, so concurrent runs over one benchmark share one build
// and one decode instead of repeating both per run.
func (s *Suite) artifact(bench string) (*prog.Artifact, error) {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	if a, ok := s.arts[bench]; ok {
		return a, nil
	}
	p, err := workload.Build(bench)
	if err != nil {
		return nil, err
	}
	a, err := prog.NewArtifact(p)
	if err != nil {
		return nil, err
	}
	if s.arts == nil {
		s.arts = make(map[string]*prog.Artifact)
	}
	s.arts[bench] = a
	return a, nil
}

// unhooked reports whether a run under cfg has no per-event hooks attached
// (tracer, telemetry, counter sampler). Only such runs may resume from, or
// fill, a checkpoint entry: a hook's sink observes the simulation stream,
// which a fast-forwarded run would silently truncate (core.Snapshot refuses
// hooked machines for the same reason). Sibling sharing needs no such
// guard: a hook observes a run without steering it, so a hooked run's
// result and watermarks are the unhooked run's, and a request answered from
// the table runs no machine for a hook to watch.
func unhooked(cfg core.Config) bool {
	return cfg.Tracer == nil && cfg.Telemetry == nil && cfg.CounterSampler == nil
}

// simulate is the engine's run function: result-table lookup (a run may have
// finished since the caller missed the table), persistent-cache lookup, a
// finished sibling's result when one is servable, then the real simulation
// — checkpoint-accelerated or sampled when the suite is so configured — and
// a cache fill. Its answers enter the table. It may run on any pool worker.
//
// Sampled runs bypass the persistent cache in both directions: an estimate
// must never be served where an exact result is expected, and the same
// fingerprint must never mean two different things.
//
// Sibling sharing covers every exact, untracked request, traced or not. A
// traced request answered from the table records a "sibling" span (source
// model and watermarks) where workload.build and core.run would have been;
// a traced request that simulates keeps its core.run cycle accounting and
// fills the table like any other run.
func (s *Suite) simulate(ctx context.Context, spec Spec) (*core.Result, error) {
	if res, ok := s.table.get(spec); ok {
		return res, nil
	}
	sampled := s.SampleRate > 0 && s.SampleRate < 1 && !spec.Track
	var key string
	if s.Cache != nil && !sampled {
		key = fingerprint(spec)
		lookup, _ := obs.StartSpan(ctx, "rescache.lookup")
		var r core.Result
		hit := s.Cache.Get(key, &r)
		lookup.Set("hit", hit)
		lookup.End()
		if hit {
			s.table.put(spec, &r, siblingMeta{})
			s.progressf("hit %-9s w=%d q=%-3d regs=%-4d %s/%s: IPC %.2f (cached)",
				spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache, r.CommitIPC())
			return &r, nil
		}
	}
	shareable := !sampled && !spec.Track
	if shareable {
		if res, meta, ok := s.table.serve(spec); ok {
			sib, _ := obs.StartSpan(ctx, "sibling")
			sib.Set("model", meta.Model.String())
			sib.Set("watermark", meta.Watermark)
			sib.End()
			s.shared.Add(1)
			s.table.put(spec, res, siblingMeta{})
			s.fill(key, spec, res)
			s.progressf("hit %-9s w=%d q=%-3d regs=%-4d %s/%s: IPC %.2f (sibling %s, wm=%v)",
				spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache, res.CommitIPC(), meta.Model, meta.Watermark)
			return res, nil
		}
	}
	build, _ := obs.StartSpan(ctx, "workload.build")
	build.Set("bench", spec.Bench)
	art, err := s.artifact(spec.Bench)
	build.End()
	if err != nil {
		return nil, err
	}
	cfg := spec.Config()
	// Propagate the caller's cancellation/deadline into the machine loop,
	// so a served request's deadline can stop a simulation mid-run.
	if ctx.Done() != nil {
		cfg.Interrupt = ctx.Err
	}
	if s.Heartbeat != nil {
		label := fmt.Sprintf("%s w=%d q=%d regs=%d", spec.Bench, spec.Width, spec.Queue, spec.Regs)
		if w := sweep.WorkerID(ctx); w > 0 {
			label = fmt.Sprintf("w%d: %s", w, label)
		}
		hb := s.Heartbeat
		cfg.Progress = func(p telemetry.Progress) {
			p.Label = label
			s.progMu.Lock()
			defer s.progMu.Unlock()
			hb(p)
		}
		cfg.ProgressEvery = s.HeartbeatEvery
	}
	run, _ := obs.StartSpan(ctx, "core.run")
	if run != nil {
		// Traced runs carry full cycle accounting on the span, so the trace
		// export can lay the simulator's own time attribution alongside the
		// serving phases. Batch (untraced) runs skip the instrumentation and
		// keep the uninstrumented hot path.
		run.Set("spec", fmt.Sprintf("%s w=%d q=%d regs=%d %s/%s",
			spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache))
		if cfg.Telemetry == nil {
			cfg.Telemetry = telemetry.New()
		}
	}
	var res *core.Result
	var meta siblingMeta
	switch {
	case sampled:
		res, err = s.runSampled(spec, art, cfg)
	case s.Checkpoints != nil && unhooked(cfg):
		res, meta, err = s.runCheckpointed(spec, art, cfg)
	default:
		var m *core.Machine
		m, err = core.NewFromArtifact(cfg, art)
		if err == nil {
			s.sims.Add(1)
			if res, err = m.Run(spec.Budget); err == nil {
				meta = finalMeta(m, spec)
			}
		}
	}
	if err != nil {
		run.Set("error", err.Error())
		run.End()
		return nil, fmt.Errorf("exper %v: %w", spec, err)
	}
	if run != nil {
		run.Set("cycles", res.Cycles)
		run.Set("committed", res.Committed)
		run.Set("cycleAccounting", cfg.Telemetry.Account.Snapshot())
	}
	run.End()
	if !shareable {
		meta = siblingMeta{} // a tracked run's answer is no source
	}
	s.table.put(spec, res, meta)
	if !sampled {
		s.fill(key, spec, res)
	}
	s.progressf("ran %-9s w=%d q=%-3d regs=%-4d %s/%s: IPC %.2f",
		spec.Bench, spec.Width, spec.Queue, spec.Regs, spec.Model, spec.Cache, res.CommitIPC())
	return res, nil
}

// fill stores res in the persistent result cache under key, if the suite
// has one. A failed fill costs a future re-simulation, never the sweep.
func (s *Suite) fill(key string, spec Spec, res *core.Result) {
	if s.Cache == nil {
		return
	}
	if err := s.Cache.Put(key, res); err != nil {
		s.progressf("cache put %s: %v", spec.Bench, err)
	}
}

// SweepStats snapshots the scheduler, result-table and persistent-cache
// counters. Runs counts simulations actually executed: an engine execution
// answered by the persistent cache is a cache hit, and one answered by a
// sibling's result is Shared, not a run.
func (s *Suite) SweepStats() telemetry.SweepStats {
	eng := s.engine().Stats()
	st := telemetry.SweepStats{
		Workers:  eng.Jobs,
		Active:   eng.Active,
		Runs:     s.sims.Load(),
		Shared:   s.shared.Load(),
		MemoHits: s.table.hits.Load(),
		Deduped:  eng.Deduped,
		Evicted:  s.table.evicted.Load(),
	}
	if s.Cache != nil {
		cs := s.Cache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheErrors = cs.Hits, cs.Misses, cs.Errors
	}
	return st
}

// measureSpec is the usage-measurement configuration for one benchmark at a
// given width and queue size: 2048 registers, lockup-free cache, precise
// exceptions, classification on.
func measureSpec(bench string, width, queue int) Spec {
	return Spec{
		Bench: bench, Width: width, Queue: queue,
		Regs: MeasureRegs, Model: rename.Precise,
		Cache: cache.LockupFree, Track: true,
	}
}

// perBench runs, as one batch, spec(i, bench) for each of n points and every
// benchmark; runs[i][b] is point i's run of workload.Names()[b].
func (s *Suite) perBench(n int, spec func(i int, bench string) Spec) (runs [][]*core.Result, err error) {
	names := workload.Names()
	specs := make([]Spec, 0, n*len(names))
	for i := range n {
		for _, bench := range names {
			specs = append(specs, spec(i, bench))
		}
	}
	results, err := s.RunAll(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	for i := range n {
		runs = append(runs, results[i*len(names):(i+1)*len(names)])
	}
	return runs, nil
}

// measureRuns runs every benchmark's usage-measurement configuration at each
// width's cost-effective queue size: runs[w][b] is workload.Names()[b] at
// Widths[w].
func (s *Suite) measureRuns() ([][]*core.Result, error) {
	return s.perBench(len(Widths), func(w int, bench string) Spec {
		return measureSpec(bench, Widths[w], CostEffectiveQueue(Widths[w]))
	})
}

// Widths are the paper's issue widths.
var Widths = []int{4, 8}

// QueueSizes is Figure 3's dispatch-queue axis.
var QueueSizes = []int{8, 16, 32, 64, 128, 256}

// RegSizes is the register-file axis of Figures 6, 7 and 10.
var RegSizes = []int{32, 48, 64, 80, 96, 128, 160, 256}
