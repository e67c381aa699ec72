// Command regsim runs one benchmark on one machine configuration and prints
// the statistics block.
//
// Usage:
//
//	regsim [flags] <benchmark>
//
// Benchmarks: compress doduc espresso gcc1 mdljdp2 mdljsp2 ora su2cor
// tomcatv; random:<seed> for a generated structured program; or
// asm:<path> to assemble and run a .s file (see internal/asm for syntax).
//
// -verify re-simulates the configuration against the functional reference
// interpreter (differential oracle, runtime invariant checker on) and fails
// the run on any divergence; see VERIFY.md for the oracle contract.
//
// Observability flags: -account prints the top-down cycle accounting,
// -metrics-out writes the full telemetry snapshot (cycle accounts, latency
// percentiles, port histograms) as JSON, -chrome-trace writes a Perfetto /
// chrome://tracing loadable pipeline trace, and -cpuprofile / -memprofile
// profile the simulator itself (CPU samples during the run; a heap snapshot
// at exit).
//
// -cache-dir attaches the persistent result cache shared with cmd/paper: a
// plain benchmark run whose spec (and budget) was simulated before — by
// either command — is answered from disk instead of re-simulated. Runs that
// need the live machine (-trace, -chrome-trace, -account, -metrics-out) or
// a non-registry program (asm:/random:) always simulate.
//
// -checkpoint-dir attaches the architectural checkpoint store (also shared
// with cmd/paper): the run fast-forwards from the machine snapshot a
// previous run of the same configuration left behind, when that run's
// budget was no larger, and stores its own state if it went deeper, with
// bit-identical results. -sample <rate in (0,1)>
// switches to sampled simulation: only that fraction of the budget is
// simulated and the rest is extrapolated, so the printed statistics are
// estimates (see DESIGN.md §14 for the error bounds) and never enter the
// result cache. Both obey the same live-machine bypass as -cache-dir.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"regsim"
	"regsim/internal/asm"
	"regsim/internal/exper"
	"regsim/internal/isa"
	"regsim/internal/rename"
	"regsim/internal/stats"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/trace"
)

func main() {
	width := flag.Int("width", 4, "issue width (4 or 8)")
	queue := flag.Int("queue", 0, "dispatch queue entries (0 = 8×width, the paper's cost-effective size)")
	regs := flag.Int("regs", 80, "physical registers per file")
	model := flag.String("model", "precise", "exception model: precise or imprecise")
	ckind := flag.String("cache", "lockup-free", "data cache: perfect, lockup, or lockup-free")
	budget := flag.Int64("n", 200_000, "committed-instruction budget")
	track := flag.Bool("live", false, "track live-register histograms and print percentiles")
	traceN := flag.Int("trace", 0, "render a pipeline diagram of the first N instructions")
	account := flag.Bool("account", false, "print the top-down cycle accounting")
	metricsOut := flag.String("metrics-out", "", "write the full telemetry snapshot as JSON to this file")
	chromeTrace := flag.String("chrome-trace", "", "write a Chrome trace-event (Perfetto) JSON pipeline trace to this file")
	traceStart := flag.Int64("trace-start", 0, "first cycle captured by -chrome-trace")
	traceEnd := flag.Int64("trace-end", 0, "cycle bound of -chrome-trace capture (0 = unbounded)")
	traceLimit := flag.Int("trace-limit", 0, "instruction cap of -chrome-trace capture (0 = default 100000)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file when the run finishes")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory shared with cmd/paper (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the persistent result cache")
	ckptDir := flag.String("checkpoint-dir", "", "architectural checkpoint directory shared with cmd/paper: keep the configuration's deepest machine snapshot and fast-forward a run at the same or a larger budget from it, bit-identically (empty disables checkpointing)")
	sample := flag.Float64("sample", 0, "sampled simulation: simulate this fraction of the budget, in (0,1), and extrapolate the rest (statistics become estimates; 0 disables)")
	verifyRun := flag.Bool("verify", false, "after the run, check the configuration against the functional reference interpreter (differential oracle + runtime invariant checker) and the checkpoint round-trip leg; roughly quadruples runtime")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: regsim [flags] <benchmark>\nbenchmarks: %s, random:<seed>, asm:<path>\n",
			strings.Join(regsim.Workloads(), " "))
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Reject malformed machine parameters here with a usage error rather
	// than handing them to core.NewMachine: the flag is wrong, not the run.
	if *width != 4 && *width != 8 {
		fatalUsage("invalid -width %d: the machine model supports issue widths 4 and 8", *width)
	}
	if *regs < rename.MinRegsPerFile {
		fatalUsage("invalid -regs %d: a register file needs at least %d registers; fewer deadlocks", *regs, rename.MinRegsPerFile)
	}
	if *queue < 0 {
		fatalUsage("invalid -queue %d: the dispatch-queue size cannot be negative", *queue)
	}
	if *budget <= 0 {
		fatalUsage("invalid -n %d: the commit budget must be positive", *budget)
	}
	if *traceStart < 0 || *traceEnd < 0 || *traceLimit < 0 {
		fatalUsage("invalid -trace-start/-trace-end/-trace-limit: capture bounds cannot be negative")
	}
	mdl, err := parseModel(*model)
	if err != nil {
		fatalUsage("%v", err)
	}
	kind, err := parseCache(*ckind)
	if err != nil {
		fatalUsage("%v", err)
	}
	// Malformed benchmark arguments are usage errors too; failures while
	// loading a well-formed one (an unreadable asm: file) are runtime errors.
	bench := flag.Arg(0)
	if seedStr, ok := strings.CutPrefix(bench, "random:"); ok {
		if _, perr := strconv.ParseInt(seedStr, 10, 64); perr != nil {
			fatalUsage("invalid benchmark %q: bad random seed %q", bench, seedStr)
		}
	} else if !strings.HasPrefix(bench, "asm:") {
		if _, werr := regsim.WorkloadByName(bench); werr != nil {
			fatalUsage("unknown benchmark %q (have %s, random:<seed>, asm:<path>)",
				bench, strings.Join(regsim.Workloads(), " "))
		}
	}
	// An uncreatable profile path is a usage error: the flag is wrong, and
	// opening it up front means a multi-minute run cannot fail at the very
	// end on a typo'd directory.
	var memf *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalUsage("invalid -memprofile %q: %v", *memprofile, err)
		}
		memf = f
	}
	var store *rescache.Store
	if *cacheDir != "" && !*noCache {
		var err error
		if store, err = rescache.Open(*cacheDir); err != nil {
			fatalUsage("invalid -cache-dir %q: %v", *cacheDir, err)
		}
	}
	// A sampling rate outside (0,1) cannot mean anything (1 would sample the
	// whole run; negative is nonsense), so it is a usage error like any other
	// malformed machine parameter. The range check is positive so that NaN,
	// unordered with everything, fails it.
	if *sample != 0 && !(*sample > 0 && *sample < 1) {
		fatalUsage("invalid -sample %v: the sampling rate must lie in (0, 1), or 0 to disable", *sample)
	}
	var ckpts *regsim.CheckpointStore
	if *ckptDir != "" {
		var err error
		if ckpts, err = regsim.OpenCheckpointStore(*ckptDir); err != nil {
			fatalUsage("invalid -checkpoint-dir %q: %v", *ckptDir, err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "regsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "regsim: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	opts := runOpts{
		width: *width, queue: *queue, regs: *regs,
		model: *model, ckind: *ckind, mdl: mdl, kind: kind, budget: *budget,
		track: *track, traceN: *traceN, account: *account,
		metricsOut: *metricsOut, chromeTrace: *chromeTrace, store: store,
		ckpts: ckpts, sample: *sample,
		verify: *verifyRun,
		chromeOpts: trace.ChromeOptions{
			StartCycle: *traceStart, EndCycle: *traceEnd, MaxInstructions: *traceLimit,
		},
	}
	if err := run(bench, opts); err != nil {
		fmt.Fprintf(os.Stderr, "regsim: %v\n", err)
		os.Exit(1)
	}
	if memf != nil {
		// Collect garbage first so the snapshot shows live simulator state,
		// not transient allocation churn.
		runtime.GC()
		if err := pprof.WriteHeapProfile(memf); err != nil {
			fmt.Fprintf(os.Stderr, "regsim: writing -memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := memf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "regsim: writing -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "regsim: "+format+"\n", args...)
	os.Exit(2)
}

func parseModel(s string) (regsim.ExceptionModel, error) {
	switch s {
	case "precise":
		return regsim.Precise, nil
	case "imprecise":
		return regsim.Imprecise, nil
	}
	return 0, fmt.Errorf("invalid -model %q: want precise or imprecise", s)
}

func parseCache(s string) (regsim.CacheKind, error) {
	switch s {
	case "perfect":
		return regsim.PerfectCache, nil
	case "lockup":
		return regsim.LockupCache, nil
	case "lockup-free":
		return regsim.LockupFreeCache, nil
	}
	return 0, fmt.Errorf("invalid -cache %q: want perfect, lockup, or lockup-free", s)
}

type runOpts struct {
	width, queue, regs int
	model, ckind       string
	mdl                regsim.ExceptionModel
	kind               regsim.CacheKind
	budget             int64
	track              bool
	traceN             int
	account            bool
	metricsOut         string
	chromeTrace        string
	chromeOpts         trace.ChromeOptions
	store              *rescache.Store
	ckpts              *regsim.CheckpointStore
	sample             float64
	verify             bool
}

func run(bench string, o runOpts) error {
	var p *regsim.Program
	var err error
	if path, ok := strings.CutPrefix(bench, "asm:"); ok {
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if p, err = asm.Parse(path, string(src)); err != nil {
			return err
		}
	} else if seedStr, ok := strings.CutPrefix(bench, "random:"); ok {
		seed, perr := strconv.ParseInt(seedStr, 10, 64)
		if perr != nil {
			return fmt.Errorf("bad random seed %q", seedStr)
		}
		p = regsim.RandomProgram(seed)
	} else if p, err = regsim.Workload(bench); err != nil {
		return err
	}

	cfg := regsim.DefaultConfig()
	cfg.Width = o.width
	if o.queue == 0 {
		o.queue = 8 * o.width
	}
	cfg.QueueSize = o.queue
	cfg.RegsPerFile = o.regs
	cfg.TrackLiveRegisters = o.track
	cfg.Model = o.mdl
	cfg.DCache = cfg.DCache.WithKind(o.kind)

	var rec *trace.Recorder
	var hooks []func(regsim.Event)
	if o.traceN > 0 {
		rec = trace.NewRecorder(o.traceN)
		hooks = append(hooks, rec.Hook())
	}
	var ct *trace.ChromeTracer
	if o.chromeTrace != "" {
		ct = trace.NewChromeTracer(o.chromeOpts)
		hooks = append(hooks, ct.Hook())
		cfg.CounterSampler = ct.CounterHook()
		// Counter tracks at 1/16 cycle resolution keep the trace small
		// while still resolving queue-occupancy ramps.
		cfg.CounterEvery = 16
	}
	switch len(hooks) {
	case 0:
	case 1:
		cfg.Tracer = hooks[0]
	default:
		cfg.Tracer = func(ev regsim.Event) {
			for _, h := range hooks {
				h(ev)
			}
		}
	}

	var tel *regsim.Telemetry
	if o.account || o.metricsOut != "" {
		tel = regsim.NewTelemetry()
		cfg.Telemetry = tel
		if o.metricsOut != "" {
			cfg.TrackLiveRegisters = true // the snapshot includes port histograms
		}
	}

	// A Chrome-trace run is wrapped in a span tree so the exported file shows
	// the run phase alongside the pipeline tracks, with the top-down cycle
	// accounting attached to the core.run slice — the same shape a traced
	// serving request produces.
	var root *regsim.Span
	runCtx := context.Background()
	if ct != nil {
		root, runCtx = regsim.StartTrace(runCtx, "regsim "+bench)
		if tel == nil {
			tel = regsim.NewTelemetry()
			cfg.Telemetry = tel
		}
	}

	// A plain registry benchmark with no machine-observing flags can be
	// answered from the persistent result cache (shared with cmd/paper),
	// fast-forwarded over checkpoints, or run sampled; anything that needs
	// the live pipeline always simulates cold and exactly.
	var res *regsim.Result
	useSuite := o.store != nil || o.ckpts != nil || o.sample != 0
	if useSuite && (strings.Contains(bench, ":") || len(hooks) > 0 || tel != nil) {
		fmt.Fprintln(os.Stderr, "regsim: note: this run needs the live machine; bypassing -cache-dir/-checkpoint-dir/-sample")
		o.store, o.ckpts, o.sample = nil, nil, 0
		useSuite = false
	}
	if useSuite {
		s := exper.NewSuite(o.budget)
		s.Cache = o.store
		s.Checkpoints = o.ckpts
		s.SampleRate = o.sample
		res, err = s.Run(exper.Spec{
			Bench: bench, Width: o.width, Queue: o.queue, Regs: o.regs,
			Model: cfg.Model, Cache: o.kind, Track: o.track,
		})
		if err == nil {
			if st := s.SweepStats(); st.CacheHits > 0 {
				fmt.Fprintln(os.Stderr, "regsim: result served from the cache")
			}
			if o.ckpts != nil {
				switch st := o.ckpts.Stats(); {
				case st.SnapshotHits > 0:
					fmt.Fprintf(os.Stderr, "regsim: checkpoint store: %d snapshot hit(s)\n", st.SnapshotHits)
				case st.SnapshotDeeper > 0:
					fmt.Fprintln(os.Stderr, "regsim: checkpoint store: the stored state lies past the budget; simulated in full")
				}
			}
			if o.sample != 0 {
				fmt.Fprintf(os.Stderr, "regsim: note: sampled run (rate %v); statistics are extrapolated estimates\n", o.sample)
			}
		}
	} else {
		runSpan, _ := regsim.StartSpan(runCtx, "core.run")
		res, err = regsim.Run(cfg, p, o.budget)
		if err == nil && runSpan != nil {
			runSpan.Set("cycles", res.Cycles)
			runSpan.Set("committed", res.Committed)
			runSpan.Set("cycleAccounting", tel.Account.Snapshot())
		}
		runSpan.End()
	}
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Render(os.Stdout)
		fmt.Println()
	}

	fmt.Printf("%s: %d-way, queue %d, %d regs/file, %s exceptions, %s cache\n",
		p.Name, o.width, o.queue, o.regs, o.model, o.ckind)
	fmt.Printf("  cycles              %12d\n", res.Cycles)
	fmt.Printf("  committed           %12d   (commit IPC %.3f)\n", res.Committed, res.CommitIPC())
	fmt.Printf("  executed            %12d   (issue IPC %.3f)\n", res.Issued, res.IssueIPC())
	fmt.Printf("  executed loads      %12d   (miss rate %.1f%%, %d forwarded)\n",
		res.IssuedLoads, 100*res.LoadMissRate(), res.ForwardedLoads)
	fmt.Printf("  executed cond br    %12d   (mispredict rate %.1f%%)\n",
		res.IssuedCondBr, 100*res.MispredictRate())
	fmt.Printf("  no-free-reg cycles  %12d   (%.1f%% of run time)\n",
		res.NoFreeRegCycles, 100*res.NoFreeRegFraction())
	fmt.Printf("  halted: %v, checksum %#016x\n", res.Halted, res.Checksum)
	if o.track {
		for f := 0; f < 2; f++ {
			d := stats.Normalize(res.Live[f].TotalLive())
			fmt.Printf("  %s live registers: p50=%d p90=%d p100=%d\n",
				isa.RegFile(f), d.Percentile(0.5), d.Percentile(0.9), d.FullCoveragePoint())
		}
	}
	if o.account {
		fmt.Printf("\n%v\n", &tel.Account)
		fmt.Printf("latency (cycles):\n")
		fmt.Printf("  dispatch→issue      %v\n", &tel.DispatchToIssue)
		fmt.Printf("  issue→complete      %v\n", &tel.IssueToComplete)
		fmt.Printf("  complete→commit     %v\n", &tel.CompleteToCommit)
		fmt.Printf("  load-miss           %v\n", &tel.LoadMissLatency)
	}

	if o.verify {
		// Re-simulate on a clean config (no observers) with the runtime
		// invariant checker on, comparing against the reference interpreter.
		vcfg := cfg
		vcfg.Tracer = nil
		vcfg.CounterSampler = nil
		vcfg.Telemetry = nil
		vcfg.CheckInvariants = true
		if err := regsim.Verify(vcfg, p, o.budget); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Println("verify: OK — committed stream, registers, memory, and rename state match the reference interpreter")
		// The checkpoint round-trip leg: snapshot a warm-up prefix, push it
		// through the checkpoint store's on-disk encoding, resume, and
		// require the finished Result to be byte-identical to the cold
		// run's. The invariant
		// checker stays off here — the leg compares two pipeline runs, and
		// the differential above already audited this configuration.
		vcfg.CheckInvariants = false
		if err := regsim.VerifyCheckpoint(vcfg, p, o.budget, o.budget/2); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Println("verify: OK — checkpoint resume is byte-identical to the cold run")
	}

	if o.metricsOut != "" {
		if err := writeMetrics(o.metricsOut, bench, o, res, tel); err != nil {
			return err
		}
	}
	if ct != nil {
		root.End()
		ct.AttachSpans(root.Snapshot())
		f, err := os.Create(o.chromeTrace)
		if err != nil {
			return err
		}
		if err := ct.Export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s: %d instructions (%d dropped by the capture cap); load it at ui.perfetto.dev\n",
			o.chromeTrace, ct.Instructions(), ct.Dropped())
	}
	return nil
}

// portJSON is the metrics-snapshot form of one register file's port usage.
type portJSON struct {
	// Reads[n]/Writes[n] count cycles using exactly n ports; the final
	// entry is open-ended (see PortHist.Saturated).
	Reads     []int64 `json:"reads"`
	Writes    []int64 `json:"writes"`
	Saturated bool    `json:"saturated"`
}

func trimZeros(h []int64) []int64 {
	n := len(h)
	for n > 0 && h[n-1] == 0 {
		n--
	}
	return h[:n]
}

// metricsSnapshot is the `-metrics-out` schema (documented in README.md).
type metricsSnapshot struct {
	Benchmark string `json:"benchmark"`
	Width     int    `json:"width"`
	QueueSize int    `json:"queueSize"`
	Regs      int    `json:"regsPerFile"`
	Model     string `json:"model"`
	Cache     string `json:"cache"`

	Cycles    int64   `json:"cycles"`
	Committed int64   `json:"committed"`
	Issued    int64   `json:"issued"`
	CommitIPC float64 `json:"commitIPC"`

	Telemetry telemetry.Snapshot  `json:"telemetry"`
	Ports     map[string]portJSON `json:"ports"`
}

func writeMetrics(path, bench string, o runOpts, res *regsim.Result, tel *regsim.Telemetry) error {
	snap := metricsSnapshot{
		Benchmark: bench,
		Width:     o.width, QueueSize: o.queue, Regs: o.regs,
		Model: o.model, Cache: o.ckind,
		Cycles: res.Cycles, Committed: res.Committed, Issued: res.Issued,
		CommitIPC: res.CommitIPC(),
		Telemetry: tel.Snapshot(),
		Ports:     make(map[string]portJSON, 2),
	}
	for f := 0; f < 2; f++ {
		snap.Ports[isa.RegFile(f).String()] = portJSON{
			Reads:     trimZeros(res.Ports[f].Reads),
			Writes:    trimZeros(res.Ports[f].Writes),
			Saturated: res.Ports[f].Saturated(),
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
