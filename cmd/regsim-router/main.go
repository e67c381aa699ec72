// Command regsim-router fronts a pool of regsimd workers with cache-affinity
// routing: each simulation spec's sibling group (the spec without its
// register-file size and exception model) is fingerprinted the way the
// persistent result cache keys entries and rendezvous-hashed onto a
// preferred worker, so repeated traffic for a configuration lands where its
// result is already held — a cluster of small caches behaving like one
// big one — and a group's siblings land where its pressure-free trunk can
// answer them. Sweeps are sharded by preferred worker across the pool and
// merged back in request order.
//
// Usage:
//
//	regsim-router -workers http://host1:8265,http://host2:8265 [-addr :8266] ...
//
// The router serves the same wire surface as a worker (POST /v1/simulate,
// POST /v1/sweep, POST /v1/estimate, GET /v1/workloads, /v1/timing,
// /healthz, /metrics) through the same HTTP shell, so clients point at
// either interchangeably, plus GET /v1/cluster (pool status) and, with
// -allow-register, POST /v1/cluster/register so workers can announce
// themselves at startup. It has no debug listener and keeps no
// recent-trace ring; a request's trace ID rides to the worker, whose
// /debug/obs holds the tree.
//
// Failure handling: a background prober polls each worker's GET /v1/load;
// saturated workers are spilled past, draining workers deprioritized, and a
// worker that dies mid-request — mid-sweep included — is routed around, its
// pending specs re-sharded onto the survivors. SIGINT/SIGTERM drains
// gracefully, exactly like regsimd.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"regsim/internal/cluster"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "regsim-router: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8266", "listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs (e.g. http://host1:8265,http://host2:8265)")
	allowRegister := flag.Bool("allow-register", false, "accept POST /v1/cluster/register so workers can join at runtime")
	policy := flag.String("policy", string(cluster.PolicyAffinity), "routing policy: affinity (rendezvous-hash on the spec's sibling-group fingerprint) or roundrobin")
	budget := flag.Int64("n", 200_000, "default committed-instruction budget for specs that omit one; must match the workers' -n or routing keys diverge from cache keys")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health/load probe period (negative disables probing)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline; also bounds each attempt of a proxied GET /v1/workloads or /v1/timing")
	deadAfter := flag.Int("dead-after", 3, "consecutive failures before a worker is considered dead")
	spill := flag.Float64("spill-threshold", 0.9, "admission-occupancy fraction above which a worker is spilled past")
	maxSweepSpecs := flag.Int("max-sweep-specs", 4096, "largest spec matrix one sweep request may carry")
	maxShardSpecs := flag.Int("max-shard-specs", 256, "largest sub-sweep sent to a single worker")
	maxBudget := flag.Int64("max-budget", 10_000_000, "largest per-spec commit budget a request may ask for")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the client sends no ?timeout=")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp on client ?timeout= requests")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight requests")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: regsim-router [flags] (it takes no arguments)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var pool []string
	for _, raw := range strings.Split(*workers, ",") {
		if raw = strings.TrimSpace(raw); raw != "" {
			pool = append(pool, raw)
		}
	}
	if len(pool) == 0 && !*allowRegister {
		fatalUsage("no workers: pass -workers or enable -allow-register")
	}
	if *budget <= 0 {
		fatalUsage("invalid -n %d: the commit budget must be positive", *budget)
	}
	if !(*spill > 0 && *spill <= 1) { // NaN fails too
		fatalUsage("invalid -spill-threshold %v: want a fraction in (0, 1]", *spill)
	}
	if *deadAfter <= 0 {
		fatalUsage("invalid -dead-after %d: want at least one failure", *deadAfter)
	}

	slogger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	logger := slog.NewLogLogger(slogger.Handler(), slog.LevelError)

	cfg := cluster.Config{
		Workers:        pool,
		AllowRegister:  *allowRegister,
		Policy:         cluster.Policy(*policy),
		DefaultBudget:  *budget,
		MaxSweepSpecs:  *maxSweepSpecs,
		MaxShardSpecs:  *maxShardSpecs,
		MaxBudget:      *maxBudget,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		DeadAfter:      *deadAfter,
		SpillThreshold: *spill,
	}
	if !*quiet {
		cfg.Logger = slogger
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		// Every cluster.Config field comes straight from a flag, so a
		// rejected configuration is a usage error.
		fatalUsage("%v", err)
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		stop() // restore default signal behaviour: a second ^C kills us
		slogger.Info("drain: refusing new simulation work", "drainTimeout", drainTimeout.String())
		rt.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			slogger.Warn("drain incomplete; closing remaining connections", "err", err.Error())
			hs.Close()
		}
	}()

	slogger.Info("listening", "addr", *addr, "workers", len(pool), "policy", *policy)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slogger.Error("listen failed", "addr", *addr, "err", err.Error())
		os.Exit(1)
	}
	<-done
	for _, w := range rt.Workers() {
		slogger.Info("worker final", "worker", w.Name, "state", w.State,
			"requests", w.Requests, "failures", w.Failures)
	}
}
