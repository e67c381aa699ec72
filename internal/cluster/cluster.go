// Package cluster is the multi-node layer over the serving stack: a router
// frontend that shards simulation traffic across a pool of regsimd workers
// by cache affinity, with health probing, saturation-aware spillover, and
// retry-with-reroute failover.
//
// The core mechanism is rendezvous (highest-random-weight) hashing over the
// SHA-256 fingerprint of each spec's sibling group (exper.Fingerprint of
// exper.SiblingGroup: the spec without its register-file size and exception
// model, fingerprinted the way the persistent result cache keys entries):
// every spec has one preferred worker, so repeated traffic for a
// configuration concentrates on the node whose result table and on-disk
// cache already hold its result — the warm-hit concentration that makes a
// cluster of small caches behave like one big one — and a group's siblings
// meet the pressure-free trunk whose result can answer them. Adding or
// removing a worker moves only the ~1/n of keys that mapped to it;
// everything else keeps its warm node.
//
// Around that affinity core the router is failure-shaped:
//
//   - a prober polls every worker's GET /v1/load (admission occupancy,
//     queue depth, drain state) and demotes workers to degraded (draining)
//     or dead (consecutive probe failures);
//   - queue-depth-aware spillover: a saturated or degraded primary is
//     skipped for the next-preferred worker while an alternative exists,
//     trading one cold simulation for not queueing behind a full node;
//   - retry-with-reroute: a worker that dies mid-request (connection error,
//     429/503 refusal) is routed around — sweep shards assigned to it are
//     regrouped onto the surviving preference order and re-sent, so an
//     in-flight sweep completes with results byte-identical to a
//     single-node run;
//   - per-group sweep sharding: POST /v1/sweep splits its matrix by each
//     spec's preferred worker (so a sibling group stays in one shard), runs
//     the shards concurrently, and merges results back into request order.
//
// The router serves the same wire surface as a worker (simulate, sweep,
// estimate, workloads, timing, healthz, metrics), so regsim.Client points at either
// interchangeably, plus GET /v1/cluster (pool status) and optional worker
// registration. It mounts the worker's own HTTP layer, server.Shell:
// routing with structured 404/405s, the middleware, deadlines, drain
// refusal and GET /metrics are one implementation, so a request either
// tier refuses before simulating gets the same answer from both. What this
// package adds is what belongs to a router: the pool, the prober,
// rendezvous routing, sweep sharding, the read-only proxy and
// GET /v1/cluster. Trace IDs propagate: the router stamps X-Trace-Id on
// every upstream call and workers adopt it, so one trace covers
// route → probe → worker; the router itself keeps no recent-trace ring.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"regsim/internal/obs"
	"regsim/internal/server"
)

// Routing policies. Affinity is the production policy; round-robin exists as
// the measurement baseline the affinity win is quantified against (see
// EXPERIMENTS.md) and as an escape hatch for pathological key skew.
type Policy string

const (
	// PolicyAffinity routes each spec to the rendezvous-hash preference
	// order of its sibling group's fingerprint.
	PolicyAffinity Policy = "affinity"
	// PolicyRoundRobin rotates through the pool per request, ignoring
	// fingerprints (cache hits then depend on luck, which is the point of
	// the baseline).
	PolicyRoundRobin Policy = "roundrobin"
)

// Error codes specific to the router, sharing the server package's wire
// envelope. Cluster-wide overload reuses server.CodeOverloaded.
const (
	// CodeNoWorkers: no worker reachable at all (503, retryable — workers
	// may register or revive).
	CodeNoWorkers = "no_workers"
	// CodeUpstream: every candidate worker failed with a transport-level
	// error (502).
	CodeUpstream = "upstream_error"
)

// Config configures a Router. Workers (or AllowRegister) is required;
// everything else defaults.
type Config struct {
	// Workers is the static pool: worker base URLs
	// (e.g. "http://10.0.0.7:8265"). The pool can grow at runtime through
	// POST /v1/cluster/register when AllowRegister is set.
	Workers []string
	// AllowRegister enables POST /v1/cluster/register.
	AllowRegister bool

	// Policy selects the routing policy (default PolicyAffinity).
	Policy Policy

	// DefaultBudget fills a request spec's omitted commit budget before
	// fingerprinting, and must match the workers' -n so the router's
	// routing key derives from the spec the workers' cache key does
	// (default 200,000 — the regsimd default). A mismatch only de-concentrates caches; results
	// stay correct because workers fill their own defaults.
	DefaultBudget int64
	// MaxSweepSpecs bounds one sweep request's matrix at the router
	// (default 4096). MaxShardSpecs bounds one sub-sweep sent to a single
	// worker (default 256; shards beyond it are chunked into parallel
	// requests so a skewed matrix cannot exceed a worker's own limit).
	MaxSweepSpecs int
	MaxShardSpecs int
	// MaxBudget bounds the per-spec commit budget, mirroring the workers'
	// -max-budget (default 10,000,000).
	MaxBudget int64

	// DefaultTimeout/MaxTimeout mirror the worker-side per-request deadline
	// handling (defaults 30s / 2m); the effective deadline is forwarded to
	// workers as their ?timeout= hint.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// ProbeInterval is the health/saturation probe period (default 2s;
	// negative disables the background prober — tests drive probes
	// directly). A load snapshot older than three intervals no longer
	// drives spillover. ProbeTimeout bounds one probe round trip, and one
	// attempt of a proxied read (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// DeadAfter is the number of consecutive failures (probe or request)
	// after which a worker is considered dead and only used as a last
	// resort (default 3; a later success revives it).
	DeadAfter int
	// SpillThreshold is the admission-occupancy fraction
	// ((inFlight+waiting)/capacity) above which a worker is spilled past
	// while a less-loaded candidate exists (default 0.9).
	SpillThreshold float64

	// Logger, when non-nil, receives structured access and routing records.
	Logger *slog.Logger
}

// Router is the cluster frontend. Construct with New, expose with Handler,
// stop with Close (which also stops the prober).
type Router struct {
	*server.Shell
	cfg  Config
	pool *pool
	// loadMaxAge is how long a load snapshot stays fresh enough to base a
	// spillover decision on (3×ProbeInterval); stale snapshots are ignored
	// rather than acted on.
	loadMaxAge time.Duration

	rr atomic.Uint64 // round-robin cursor (PolicyRoundRobin only)

	spillovers atomic.Int64 // primaries skipped for load/degradation
	reroutes   atomic.Int64 // attempts moved past a failed/refusing worker
	probes     atomic.Int64
	probeFails atomic.Int64

	stopProber chan struct{}
	proberDone chan struct{}
}

// New validates the configuration, builds the worker pool, and (unless
// probing is disabled) starts the background prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Workers) == 0 && !cfg.AllowRegister {
		return nil, errors.New("cluster: no workers configured and registration disabled")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyAffinity
	}
	if cfg.Policy != PolicyAffinity && cfg.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("cluster: unknown policy %q (want %q or %q)", cfg.Policy, PolicyAffinity, PolicyRoundRobin)
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = 200_000
	}
	if cfg.MaxSweepSpecs <= 0 {
		cfg.MaxSweepSpecs = 4096
	}
	if cfg.MaxShardSpecs <= 0 {
		cfg.MaxShardSpecs = 256
	}
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 10_000_000
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if !(cfg.SpillThreshold > 0 && cfg.SpillThreshold <= 1) { // NaN too
		cfg.SpillThreshold = 0.9
	}
	interval := cfg.ProbeInterval
	if interval < 0 {
		interval = 2 * time.Second
	}
	rt := &Router{cfg: cfg, pool: newPool(), loadMaxAge: 3 * interval}
	reg := obs.NewRegistry()
	sh, err := server.NewShell("router", "regsim_router_", reg, cfg.DefaultTimeout, cfg.MaxTimeout, cfg.Logger, rt.metricsDoc)
	if err != nil {
		return nil, err
	}
	rt.Shell = sh
	for _, raw := range cfg.Workers {
		if _, err := rt.pool.add(raw); err != nil {
			return nil, err
		}
	}
	rt.registerMetrics(reg)
	rt.Route("POST /v1/simulate", rt.handleSimulate)
	rt.Route("POST /v1/sweep", rt.handleSweep)
	rt.Route("POST /v1/estimate", rt.handleEstimate)
	rt.Route("GET /v1/workloads", rt.handleProxy)
	rt.Route("GET /v1/timing", rt.handleProxy)
	rt.Route("GET /v1/cluster", rt.handleCluster)
	if cfg.AllowRegister {
		rt.Route("POST /v1/cluster/register", rt.handleRegister)
	}
	rt.Route("GET /healthz", rt.handleHealthz)
	if cfg.ProbeInterval > 0 {
		rt.stopProber = make(chan struct{})
		rt.proberDone = make(chan struct{})
		go rt.proberLoop()
	}
	return rt, nil
}

// Close stops the background prober (idempotent; safe when probing is
// disabled).
func (rt *Router) Close() {
	if rt.stopProber == nil {
		return
	}
	select {
	case <-rt.stopProber:
	default:
		close(rt.stopProber)
		<-rt.proberDone
	}
}

// Workers returns a point-in-time status snapshot of every pool member.
func (rt *Router) Workers() []WorkerStatus {
	workers := rt.pool.workers()
	out := make([]WorkerStatus, len(workers))
	for i, w := range workers {
		out[i] = w.status()
	}
	return out
}

// Register adds a worker to the pool at runtime (the programmatic form of
// POST /v1/cluster/register; unlike the endpoint it works even when
// AllowRegister is off). It reports whether the worker was new.
func (rt *Router) Register(rawURL string) (bool, error) {
	w, err := rt.pool.add(rawURL)
	if err != nil {
		return false, err
	}
	return w != nil, nil
}

// normalizeWorkerURL validates and canonicalises one worker base URL.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("cluster: worker URL %q is not an absolute http(s) URL", raw)
	}
	return raw, nil
}
