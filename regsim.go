// Package regsim is a cycle-level simulator of dynamically scheduled
// (out-of-order) superscalar processors, built to reproduce
//
//	K.I. Farkas, N.P. Jouppi, P. Chow,
//	"Register File Design Considerations in Dynamically Scheduled
//	Processors", WRL Research Report 95/10 / HPCA 1996.
//
// The library models a 4- or 8-way issue RISC machine with register
// renaming, a unified dispatch queue, greedy oldest-first scheduling,
// McFarling combining branch prediction, speculative (including wrong-path)
// execution, non-blocking loads with an inverted-MSHR lockup-free cache, and
// the paper's two register-freeing exception models (precise and imprecise).
// It also includes the paper's multiported register-file cycle-time model
// and an experiment harness that regenerates every table and figure.
//
// # Quick start
//
//	prog, _ := regsim.Workload("tomcatv")
//	cfg := regsim.DefaultConfig()     // 4-way, 32-entry queue, 80 regs/file
//	res, _ := regsim.Run(cfg, prog, 100_000)
//	fmt.Printf("commit IPC %.2f\n", res.CommitIPC())
//
// The underlying building blocks live in internal packages; this package is
// the stable surface: machine configuration and execution, the benchmark
// workloads, the register-file timing model, and the paper's experiment
// suite (Suite).
package regsim

import (
	"context"

	"regsim/internal/asm"
	"regsim/internal/cache"
	"regsim/internal/ckpt"
	"regsim/internal/cluster"
	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/rftiming"
	"regsim/internal/server"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/trace"
	"regsim/internal/verify"
	"regsim/internal/workload"
)

// Config selects a machine configuration. It is the experiment axes of the
// paper plus fixed structural parameters; see the field documentation on the
// aliased type.
type Config = core.Config

// Result holds the statistics of one simulation run.
type Result = core.Result

// Program is an executable image for the simulator's Alpha-style ISA.
type Program = prog.Program

// ExceptionModel selects the register-freeing discipline.
type ExceptionModel = rename.Model

// Exception models (paper §2.2).
const (
	// Precise frees a retired register mapping when the retiring
	// instruction commits; the machine can recover exact state at any
	// instruction boundary.
	Precise = rename.Precise
	// Imprecise frees mappings under the weaker completion-based
	// conditions — the paper's lower bound on register requirements.
	Imprecise = rename.Imprecise
)

// CacheKind selects the data-cache organisation.
type CacheKind = cache.Kind

// Data-cache organisations (paper §2.1 and §3.3).
const (
	// PerfectCache always hits.
	PerfectCache = cache.Perfect
	// LockupCache blocks on a miss until the fill completes.
	LockupCache = cache.Lockup
	// LockupFreeCache services unlimited outstanding misses with an
	// inverted-MSHR organisation.
	LockupFreeCache = cache.LockupFree
)

// DefaultConfig returns the paper's baseline 4-way machine: a 32-entry
// dispatch queue, 80 registers per file, precise exceptions, and the 64 KB
// 2-way lockup-free data cache with a 16-cycle fetch latency.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run simulates prog on a machine with the given configuration until the
// program halts or maxCommit instructions have committed.
func Run(cfg Config, p *Program, maxCommit int64) (*Result, error) {
	m, err := core.New(cfg, p)
	if err != nil {
		return nil, err
	}
	return m.Run(maxCommit)
}

// Workload builds one of the built-in SPEC92 stand-in benchmarks by name
// (compress, doduc, espresso, gcc1, mdljdp2, mdljsp2, ora, su2cor, tomcatv).
func Workload(name string) (*Program, error) { return workload.Build(name) }

// Workloads returns the benchmark names in the paper's Table 1 order.
func Workloads() []string { return workload.Names() }

// WorkloadInfo describes a built-in benchmark, including the paper's
// Table 1 reference characteristics that guided its construction.
type WorkloadInfo = workload.Info

// WorkloadByName returns a benchmark's description.
func WorkloadByName(name string) (*WorkloadInfo, error) { return workload.Get(name) }

// SyntheticParams describes a user-composed workload (instruction mix,
// working-set footprint, branch bias, dependence depth, divide frequency)
// for "what would my code need?" register-file studies.
type SyntheticParams = workload.SyntheticParams

// Synthetic generates a program with the requested dynamic character.
func Synthetic(p SyntheticParams) (*Program, error) { return workload.Synthetic(p) }

// RandomProgram generates a terminating random structured program
// (deterministic per seed); it exercises every instruction class and is
// intended for differential testing against the reference interpreter.
func RandomProgram(seed int64) *Program { return workload.RandomProgram(seed) }

// TimingParams holds the multiported register-file timing model's technology
// constants (paper §3.4, Figures 9–10).
type TimingParams = rftiming.Params

// TimingPorts describes a register file's port configuration.
type TimingPorts = rftiming.Ports

// DefaultTimingParams returns the calibrated 0.5µm CMOS parameter set.
func DefaultTimingParams() TimingParams { return rftiming.Default05um() }

// PortsForWidth returns the paper's port provisioning: 2×width read ports
// and width write ports for the integer file, half of each for the
// floating-point file.
func PortsForWidth(width int, fpFile bool) TimingPorts { return rftiming.PortsFor(width, fpFile) }

// BIPS converts a commit IPC and a machine cycle time in nanoseconds into
// billions of instructions per second (the paper's Figure 10 metric).
func BIPS(commitIPC, cycleNS float64) float64 { return rftiming.BIPS(commitIPC, cycleNS) }

// Suite runs the paper's experiments (Table 1, Figures 3–8 and 10, plus the
// ablation studies) on the parallel sweep engine: a bounded result table
// answers repeats, figure batches run across Suite.Jobs workers, and an
// optional persistent result cache (Suite.Cache) makes repeat sweeps
// near-instant. See the methods on the aliased type.
type Suite = exper.Suite

// NewSuite returns an experiment suite with the given per-run commit budget
// (the paper ran 23M–910M instructions per benchmark; a few hundred thousand
// reproduce the trends for the synthetic stand-ins).
func NewSuite(budget int64) *Suite { return exper.NewSuite(budget) }

// SweepSpec identifies one simulation run in an experiment sweep: the
// benchmark and the machine-configuration axes of the paper.
type SweepSpec = exper.Spec

// ResultCache is the sweep subsystem's persistent, content-addressed
// on-disk result store. Entries are keyed by a fingerprint of the spec, its
// commit budget, and the simulator/workload version strings; each process
// appends CRC-checked records to a segment file of its own, and torn or
// corrupt entries are re-simulated, never fatal. A ResultCache is safe for
// concurrent use, including by multiple processes sharing one directory.
type ResultCache = rescache.Store

// OpenResultCache creates (if needed) and validates a result-cache
// directory; attach the store to Suite.Cache.
func OpenResultCache(dir string) (*ResultCache, error) { return rescache.Open(dir) }

// SweepStats is the observability snapshot of one experiment sweep —
// scheduler executions, memo/dedup/eviction counters, and persistent-cache
// hit/miss/error counts — returned by Suite.SweepStats.
type SweepStats = telemetry.SweepStats

// Client is the typed client for a regsimd serving instance (cmd/regsimd):
// simulate single specs, run sweep matrices, list workloads, evaluate the
// cycle-time model, and read live metrics over JSON/HTTP. Server refusals
// come back as *APIError values carrying the structured code and backoff
// hint.
type Client = server.Client

// NewClient returns a client for a serving instance, e.g.
// NewClient("http://localhost:8265"). It keeps its connections alive
// between calls; Close releases the idle ones.
func NewClient(baseURL string) *Client { return server.NewClient(baseURL) }

// APIError is the structured error a serving instance returns for every
// non-2xx response; branch on its Code and IsRetryable rather than the
// message text.
type APIError = server.APIError

// Server is the embeddable HTTP serving layer behind cmd/regsimd —
// bounded admission, request coalescing through the sweep engine,
// per-request deadlines, and live metrics. Mount Handler() anywhere an
// http.Handler goes. Its HTTP shell (routing, middleware, deadlines, drain,
// GET /metrics) is the same one ClusterRouter mounts, so a request refused
// before any simulation gets the same bytes from either.
type Server = server.Server

// ServerConfig configures NewServer; only Suite is required.
type ServerConfig = server.Config

// NewServer builds a serving layer over an experiment suite.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ClusterRouter is the embeddable cluster frontend behind cmd/regsim-router:
// cache-affinity (rendezvous-hash) routing of simulate and sweep traffic
// over a pool of serving instances, with health probing, saturation-aware
// spillover, and retry-with-reroute failover. It serves the same wire
// surface as a single server, through the same HTTP shell, so a Client
// points at either interchangeably. Unlike a Server it keeps no
// recent-trace ring.
type ClusterRouter = cluster.Router

// ClusterConfig configures NewClusterRouter; Workers (or AllowRegister) is
// required, and DefaultBudget must match the workers' commit budget so
// routing keys equal cache keys.
type ClusterConfig = cluster.Config

// NewClusterRouter builds a cluster frontend over a worker pool.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.New(cfg) }

// ParseAsm assembles textual assembly (the isa.Disasm syntax plus labels and
// .entry/.word/.float directives; see internal/asm) into a runnable program.
func ParseAsm(name, src string) (*Program, error) { return asm.Parse(name, src) }

// Event is one pipeline transition delivered to Config.Tracer.
type Event = core.Event

// TraceRecorder collects pipeline events and renders D/I/C/R pipeline
// diagrams; install its Hook as Config.Tracer.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder for up to limit instructions
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// Telemetry collects one run's observability data: top-down cycle accounting
// and per-instruction stage-latency histograms. Attach a fresh instance to
// Config.Telemetry before Run and read it afterwards; the machine verifies
// at the end of the run that the accounting buckets sum exactly to the run's
// cycle count.
type Telemetry = telemetry.Telemetry

// NewTelemetry returns an empty telemetry sink.
func NewTelemetry() *Telemetry { return telemetry.New() }

// CycleAccount is the top-down cycle-accounting tally: every simulated cycle
// attributed to exactly one CycleBucket.
type CycleAccount = telemetry.CycleAccount

// CycleBucket is one cycle-accounting category.
type CycleBucket = telemetry.Bucket

// Cycle-accounting buckets, in pipeline order from healthy retirement to
// front-end starvation. See the telemetry package for the attribution rules.
const (
	CycleCommitFull    = telemetry.BucketCommitFull
	CycleCommitPartial = telemetry.BucketCommitPartial
	CycleQueueFull     = telemetry.BucketQueueFull
	CycleNoFreeReg     = telemetry.BucketNoFreeReg
	CycleICacheMiss    = telemetry.BucketICacheMiss
	CycleRecovery      = telemetry.BucketRecovery
	CycleDCacheMiss    = telemetry.BucketDCacheMiss
	CycleWriteBuffer   = telemetry.BucketWriteBuffer
	CycleOther         = telemetry.BucketOther
)

// LatencyHistogram is a log2-bucketed latency histogram with exact counts
// below 128 cycles and P50/P90/P99 helpers.
type LatencyHistogram = telemetry.Histogram

// RunProgress is one heartbeat of a running simulation, delivered to
// Config.Progress (or Suite.Heartbeat) every Config.ProgressEvery cycles.
type RunProgress = telemetry.Progress

// CounterSample is one periodic structural-occupancy sample (dispatch-queue
// entries, free registers) delivered to Config.CounterSampler; it feeds the
// Chrome-trace exporter's counter tracks.
type CounterSample = core.CounterSample

// ChromeTracer converts the Config.Tracer event stream into a Chrome
// trace-event (Perfetto) JSON file: per-stage slice tracks plus counter
// tracks, loadable at ui.perfetto.dev or chrome://tracing.
type ChromeTracer = trace.ChromeTracer

// ChromeTraceOptions bounds a Chrome-trace capture (cycle window and
// instruction cap) so multi-million-cycle runs stay within a size budget.
type ChromeTraceOptions = trace.ChromeOptions

// NewChromeTracer returns a Chrome-trace capture; install its Hook as
// Config.Tracer and its CounterHook as Config.CounterSampler.
func NewChromeTracer(opts ChromeTraceOptions) *ChromeTracer { return trace.NewChromeTracer(opts) }

// Span is one timed phase of a traced request (or CLI run). Spans form a
// tree per trace plus cross-trace links; every method is a no-op on a nil
// receiver, so instrumented code needs no enabled/disabled branches.
type Span = obs.Span

// SpanData is the plain-data snapshot of a span tree: what the serving
// layer's /debug/obs endpoint returns, what slow-request logs inline, and
// what ChromeTracer.AttachSpans renders onto the Perfetto timeline.
type SpanData = obs.SpanData

// StartTrace begins a new trace: a fresh random trace ID and a root span,
// installed as the context's active span. End the returned span, then
// snapshot it with its Snapshot method.
func StartTrace(ctx context.Context, name string) (*Span, context.Context) {
	return obs.StartTrace(ctx, name)
}

// StartSpan begins a child of the context's active span. On an untraced
// context it returns (nil, ctx) — the disabled path costs one context
// lookup.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	return obs.StartSpan(ctx, name)
}

// SpanFromContext returns the context's active span, or nil when untraced.
func SpanFromContext(ctx context.Context) *Span { return obs.FromContext(ctx) }

// Verify runs the differential oracle: it simulates p under cfg and checks
// the committed instruction stream (count and checksum), the final
// architectural register files, the final memory image, and the rename
// unit's structural invariants against the functional reference interpreter.
// A budget of 0 means run to halt. The returned error is a
// *VerifyMismatchError for oracle divergence or a *MachineInvariantError
// when cfg.CheckInvariants caught corruption mid-run. See VERIFY.md for the
// oracle contract.
func Verify(cfg Config, p *Program, budget int64) error {
	return verify.Differential(cfg, p, verify.Options{Budget: budget})
}

// VerifyCheckpoint runs the checkpoint round-trip leg of the verification
// subsystem: p under cfg is simulated cold to budget and again by
// snapshotting a warm-up prefix, serializing the snapshot through the
// checkpoint store's on-disk encoding, resuming, and finishing — and the two
// Results must be byte-identical under the canonical encoding the result
// cache stores.
// warm is the snapshot point in committed instructions; values outside
// (0, budget) default to budget/2. The returned error is a
// *VerifyMismatchError with Field "checkpoint" on drift.
func VerifyCheckpoint(cfg Config, p *Program, budget, warm int64) error {
	return verify.CheckpointRoundTrip(cfg, p, budget, warm)
}

// CheckpointStore persists architectural checkpoints (one mid-run machine
// snapshot per configuration, the deepest a run stored) under a directory,
// so a later run of the same configuration at the same or a larger budget
// fast-forwards over the prefix instead of re-simulating it. Attach one to
// Suite.Checkpoints; results are bit-identical with or without it.
type CheckpointStore = ckpt.Store

// OpenCheckpointStore opens (creating if needed) a checkpoint store backed
// by dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return ckpt.OpenStore(dir) }

// VerifyMismatchError reports which architectural field diverged from the
// reference interpreter.
type VerifyMismatchError = verify.MismatchError

// MachineInvariantError reports a microarchitectural invariant violation
// (free-list conservation, in-order commit, occupancy bounds, rename-state
// audit) caught by the runtime checker enabled with Config.CheckInvariants.
type MachineInvariantError = core.InvariantError
