// Command regsimd serves the simulator over HTTP: simulation-as-a-service
// for the paper's design-space sweeps. One daemon hosts one experiment
// suite, so every request shares the same in-memory result table, in-flight
// coalescing, and (with -cache-dir) the same persistent result cache as
// cmd/paper and cmd/regsim.
//
// Usage:
//
//	regsimd [-addr :8265] [-jobs N] [-cache-dir dir] [-n budget] ...
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, GET /v1/workloads,
// GET /v1/timing, GET /healthz, GET /metrics (JSON, or Prometheus text
// exposition with ?format=prometheus). See the README's Serving and
// Observability sections for the wire format and curl examples.
//
// All output is structured JSON logs (log/slog) on stderr; every request is
// logged with its trace ID (also echoed as the X-Trace-Id response header),
// and requests slower than -slow get their full span tree inlined. With
// -debug-addr a second listener serves net/http/pprof and /debug/obs (recent
// request traces, exportable as Perfetto files via /debug/obs/trace?id=).
//
// SIGINT/SIGTERM triggers a graceful drain: /healthz flips to 503, new
// simulation requests are refused with Retry-After, in-flight requests run
// to completion (bounded by -drain-timeout), and the final sweep statistics
// are logged on the way out.
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
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"regsim/internal/exper"
	"regsim/internal/server"
	"regsim/internal/sweep/rescache"
)

// defaultCacheDir mirrors cmd/paper: the shared persistent result cache
// under the OS user cache directory, empty (caching off) when the platform
// reports none.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "regsimd: "+format+"\n", args...)
	os.Exit(2)
}

func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "regsim", "results")
}

func main() {
	addr := flag.String("addr", ":8265", "listen address")
	budget := flag.Int64("n", 200_000, "default committed-instruction budget for specs that omit one")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations inside one sweep request")
	cacheDir := flag.String("cache-dir", defaultCacheDir(), "persistent result-cache directory shared with cmd/paper and cmd/regsim (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the persistent result cache")
	maxInFlight := flag.Int("max-inflight", 0, "admission bound on concurrently executing simulation requests (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "bounded wait queue behind the in-flight slots (0 = 4×max-inflight)")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the client sends no ?timeout=")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp on client ?timeout= requests")
	maxSweepSpecs := flag.Int("max-sweep-specs", 512, "largest spec matrix one sweep request may carry")
	maxBudget := flag.Int64("max-budget", 10_000_000, "largest per-spec commit budget a request may ask for")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight requests")
	debugAddr := flag.String("debug-addr", "", "listen address for the operator debug surface (pprof, /debug/obs); empty disables it")
	slow := flag.Duration("slow", 10*time.Second, "latency above which a request's full span tree is logged (0 disables)")
	traceBuffer := flag.Int("trace-buffer", 0, "recent request traces kept for /debug/obs (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: regsimd [flags] (it takes no arguments)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Malformed flag values are usage errors (exit 2); only failures while
	// actually serving (a port in use, a drain timeout) are runtime errors.
	if *budget <= 0 {
		fatalUsage("invalid -n %d: the commit budget must be positive", *budget)
	}
	if *jobs <= 0 {
		fatalUsage("invalid -jobs %d: want at least one worker", *jobs)
	}
	if *slow < 0 {
		fatalUsage("invalid -slow %v: the slow-request threshold cannot be negative", *slow)
	}
	if *traceBuffer < 0 {
		fatalUsage("invalid -trace-buffer %d: want a non-negative ring size", *traceBuffer)
	}

	// All daemon output is structured JSON on stderr: slog records directly,
	// and the legacy *log.Logger surfaces (panic logs, http.Server errors)
	// through the slog adapter, so one `jq` works on the whole stream.
	slogger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	logger := slog.NewLogLogger(slogger.Handler(), slog.LevelError)

	suite := exper.NewSuite(*budget)
	suite.Jobs = *jobs
	if *cacheDir != "" && !*noCache {
		store, err := rescache.Open(*cacheDir)
		if err != nil {
			fatalUsage("invalid -cache-dir %q: %v", *cacheDir, err)
		}
		suite.Cache = store
		slogger.Info("result cache open", "dir", *cacheDir)
	} else {
		slogger.Info("result cache disabled; every cold spec simulates")
	}

	cfg := server.Config{
		Suite:          suite,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxSweepSpecs:  *maxSweepSpecs,
		MaxBudget:      *maxBudget,
		ErrorLog:       logger,
		SlowRequest:    *slow,
		TraceBuffer:    *traceBuffer,
	}
	if !*quiet {
		cfg.Logger = slogger
	}
	srv, err := server.New(cfg)
	if err != nil {
		// Every server.Config field comes straight from a flag, so a
		// rejected configuration is a usage error.
		fatalUsage("%v", err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}

	// The debug surface (pprof, /debug/obs) listens on its own address so it
	// is never reachable through the serving port or its load balancer.
	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          logger,
		}
		go func() {
			slogger.Info("debug surface listening", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// An unusable debug address is a runtime error like an
				// unusable serving address: fail loudly rather than run
				// half-configured.
				slogger.Error("debug listener failed", "addr", *debugAddr, "err", err.Error())
				os.Exit(1)
			}
		}()
	}

	// Graceful drain: the first signal stops admission and waits for
	// in-flight work; a second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		stop() // restore default signal behaviour: a second ^C kills us
		slogger.Info("drain: refusing new simulation work", "drainTimeout", drainTimeout.String())
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			slogger.Warn("drain incomplete; closing remaining connections", "err", err.Error())
			hs.Close()
		}
		if ds != nil {
			ds.Close()
		}
	}()

	slogger.Info("listening", "addr", *addr, "jobs", *jobs, "budget", *budget)
	// A listen failure (bad address, port in use) is a runtime error: the
	// flag was well-formed, the environment refused it.
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slogger.Error("listen failed", "addr", *addr, "err", err.Error())
		os.Exit(1)
	}
	<-done
	st := suite.SweepStats()
	slogger.Info("exiting",
		"runs", st.Runs, "memoHits", st.MemoHits, "coalesced", st.Deduped, "evicted", st.Evicted, "cacheHits", st.CacheHits)
}
