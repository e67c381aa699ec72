// Package server is the simulation-as-a-service layer: a JSON-over-HTTP
// front end over the experiment suite (internal/exper) and its sweep
// subsystem. It turns the library into a shareable service — Figure 3/10
// style design-space sweeps on demand — while reusing the existing
// machinery end to end: identical in-flight requests coalesce through the
// sweep engine's singleflight, completed configurations are answered from
// the shared persistent result cache, and request latencies land in the
// telemetry package's histograms.
//
// The layer is production-shaped rather than a toy mux:
//
//   - bounded admission: at most MaxInFlight simulation requests execute,
//     at most MaxQueue more wait, everything beyond is refused fast with a
//     structured 429 and a Retry-After hint;
//   - per-request deadlines: a default (and a clamp) on the server, an
//     optional ?timeout= override per request, and the deadline propagates
//     through the engine into the machine loop, aborting simulations
//     mid-run;
//   - request validation with structured JSON errors naming the offending
//     field, panic-to-500 recovery, and structured access logs;
//   - graceful drain: Drain() flips /healthz to 503 and refuses new
//     simulation work while in-flight requests finish.
//
// The HTTP half of that — routing, middleware, deadlines, drain refusal,
// GET /metrics — is the Shell, which internal/cluster's router mounts too;
// the shared request decoding (DecodeSpec, DecodeSweep) and the wire types
// live here as well, so both daemons speak one contract.
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, POST /v1/estimate,
// GET /v1/workloads, GET /v1/timing, GET /v1/load, GET /healthz,
// GET /metrics.
package server

import (
	"errors"
	"log"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/telemetry"
	"regsim/internal/twin"
)

// Config configures a Server. The zero value of every field except Suite is
// usable; New fills defaults.
type Config struct {
	// Suite executes the simulations. Required. Its Jobs field bounds how
	// many simulations one sweep request fans out to; the server's
	// MaxInFlight bounds how many requests simulate at once.
	Suite *exper.Suite

	// MaxInFlight is the admission bound on concurrently executing
	// simulation requests (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue is the bounded wait queue in front of the slots (default
	// 4×MaxInFlight). A request beyond slots+queue is refused with 429.
	MaxQueue int

	// DefaultTimeout is the per-request deadline when the client sends no
	// ?timeout= (default 30s). MaxTimeout clamps client requests
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxSweepSpecs bounds the spec matrix of one sweep request
	// (default 512).
	MaxSweepSpecs int
	// MaxBudget bounds the per-spec commit budget a request may ask for
	// (default 10,000,000).
	MaxBudget int64

	// ErrorLog, when non-nil, receives handler panics with stacks
	// (default: log.Default so panics are never silent).
	ErrorLog *log.Logger
	// Logger, when non-nil, receives structured (slog) access lines — one
	// record per request with the trace ID, endpoint, status, and span
	// timings.
	Logger *slog.Logger
	// SlowRequest, when positive, is the latency above which a request's
	// full span tree is inlined into a warn-level Logger record (0 disables
	// slow-request logging).
	SlowRequest time.Duration
	// TraceBuffer is the capacity of the recent-trace ring served at
	// /debug/obs (0 = obs.DefaultStoreCapacity).
	TraceBuffer int
}

// Server is the HTTP serving layer. Construct with New, expose with
// Handler, stop with Drain.
type Server struct {
	*Shell
	cfg  Config
	adm  *admission
	twin *twin.Model // answers POST /v1/estimate, calibrating over Suite

	// estimates counts POST /v1/estimate requests, scraped as
	// regsim_estimate_requests_total.
	estimates atomic.Int64

	// admWait is the admission wait-time histogram (milliseconds queued
	// before a slot), fed by the handlers and scraped as
	// regsim_admission_wait_ms.
	admWaitMu sync.Mutex
	admWait   telemetry.Histogram
}

// New validates the configuration, fills defaults, and builds the routing
// table.
func New(cfg Config) (*Server, error) {
	if cfg.Suite == nil {
		return nil, errors.New("server: Config.Suite is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxSweepSpecs <= 0 {
		cfg.MaxSweepSpecs = 512
	}
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 10_000_000
	}
	s := &Server{
		cfg:  cfg,
		adm:  newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		twin: twin.New(cfg.Suite),
	}
	reg := obs.NewRegistry()
	sh, err := NewShell("server", "regsim_", reg, cfg.DefaultTimeout, cfg.MaxTimeout, cfg.Logger, s.metricsDoc)
	if err != nil {
		return nil, err
	}
	if cfg.ErrorLog != nil {
		sh.errorLog = cfg.ErrorLog
	}
	sh.slowRequest = cfg.SlowRequest
	sh.traces = obs.NewStore(cfg.TraceBuffer)
	s.Shell = sh
	s.registerMetrics(reg)
	s.Route("POST /v1/simulate", s.handleSimulate)
	s.Route("POST /v1/sweep", s.handleSweep)
	s.Route("POST /v1/estimate", s.handleEstimate)
	s.Route("GET /v1/workloads", s.handleWorkloads)
	s.Route("GET /v1/timing", s.handleTiming)
	s.Route("GET /v1/load", s.handleLoad)
	s.Route("GET /healthz", s.handleHealthz)
	return s, nil
}

// Suite exposes the underlying experiment suite (tests and the daemon's
// shutdown path use it to report final sweep statistics).
func (s *Server) Suite() *exper.Suite { return s.cfg.Suite }

// Twin exposes the analytical model behind POST /v1/estimate.
func (s *Server) Twin() *twin.Model { return s.twin }
