package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regsim/internal/obs"
	"regsim/internal/telemetry"
)

// RetryAfterSeconds is the backoff hint, in whole seconds, on every refusal
// a daemon makes itself: a full admission queue, a drain, an empty or
// refusing worker pool.
const RetryAfterSeconds = 1

// Shell is the HTTP layer both daemons mount: regsimd's Server and
// regsim-router's cluster.Router embed one. It owns
//
//   - the mux, with structured JSON 404/405 answers for unrouted requests;
//   - the middleware every route runs under: trace-ID adoption (a caller's
//     X-Trace-Id, else a fresh one, echoed on the response), panic-to-500
//     recovery, per-endpoint metrics, and the slog access record with one
//     phaseMS_* attribute per direct child of the request's root span;
//   - per-request deadlines, drain refusal, and GET /metrics with its
//     JSON/Prometheus format switch;
//   - the uptime, draining and HTTP metric families.
//
// What differs between the daemons is what they pass to NewShell — their
// name (in drain and panic messages), metric prefix and JSON /metrics
// document — plus what Server alone sets on its shell: the recent-trace
// ring behind /debug/obs, its error log and the slow-request threshold.
type Shell struct {
	name     string // the daemon in drain and panic messages: "server" or "router"
	mux      *http.ServeMux
	methods  map[string][]string // path → registered methods, for 405s
	metrics  map[string]*endpointMetrics
	start    time.Time
	draining atomic.Bool
	reg      *obs.Registry

	defaultTimeout, maxTimeout time.Duration

	logger      *slog.Logger  // access records; nil disables them
	errorLog    *log.Logger   // handler panics with stacks
	slowRequest time.Duration // above it the access record inlines the span tree (0 = never)
	traces      *obs.Store    // recent request traces; nil keeps none
}

// NewShell builds a shell that installs its metric families into reg under
// prefix and answers the JSON form of GET /metrics with doc(). A zero
// defaultTimeout or maxTimeout takes the default (30s, 2m).
func NewShell(name, prefix string, reg *obs.Registry, defaultTimeout, maxTimeout time.Duration,
	logger *slog.Logger, doc func() any) (*Shell, error) {
	if defaultTimeout <= 0 {
		defaultTimeout = 30 * time.Second
	}
	if maxTimeout <= 0 {
		maxTimeout = 2 * time.Minute
	}
	if defaultTimeout > maxTimeout {
		return nil, fmt.Errorf("%s: DefaultTimeout %v exceeds MaxTimeout %v", name, defaultTimeout, maxTimeout)
	}
	sh := &Shell{
		name:           name,
		mux:            http.NewServeMux(),
		methods:        make(map[string][]string),
		metrics:        make(map[string]*endpointMetrics),
		start:          time.Now(),
		reg:            reg,
		defaultTimeout: defaultTimeout,
		maxTimeout:     maxTimeout,
		logger:         logger,
		errorLog:       log.Default(),
	}
	sh.registerMetrics(prefix)
	sh.Route("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			WriteJSON(w, http.StatusOK, doc())
		case "prometheus":
			w.Header().Set("Content-Type", obs.ContentType)
			reg.WritePrometheus(w) // the connection is gone if this fails
		default:
			WriteError(w, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
				Field:   "format",
				Message: fmt.Sprintf("unknown metrics format %q (want json or prometheus)", format)})
		}
	})
	// Catch-all so unrouted paths get the same structured JSON errors as
	// everything else (ServeMux's own 404/405 are plain text — and its
	// automatic 405 never fires once "/" is registered, because the
	// catch-all matches first; hence the explicit methods table).
	sh.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if allowed, ok := sh.methods[r.URL.Path]; ok {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			WriteError(w, &APIError{
				Status: http.StatusMethodNotAllowed, Code: CodeInvalidArgument,
				Message: fmt.Sprintf("%s not allowed on %s (allow %s)", r.Method, r.URL.Path, strings.Join(allowed, ", ")),
			})
			return
		}
		WriteError(w, &APIError{
			Status: http.StatusNotFound, Code: CodeNotFound,
			Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path),
		})
	})
	return sh, nil
}

// Route registers a handler under the middleware, creates its metrics slot,
// and records the method for the catch-all's 405 answers. Patterns are
// always "METHOD /path".
func (sh *Shell) Route(pattern string, h http.HandlerFunc) {
	m := &endpointMetrics{}
	sh.metrics[pattern] = m
	sh.mux.Handle(pattern, sh.wrap(pattern, m, h))
	method, path, _ := strings.Cut(pattern, " ")
	sh.methods[path] = append(sh.methods[path], method)
}

// Handler returns the root handler.
func (sh *Shell) Handler() http.Handler { return sh.mux }

// Drain puts the daemon into drain mode: /healthz reports 503 (so load
// balancers stop sending traffic), new simulation requests are refused with
// a structured 503, and in-flight requests run to completion. Read-only
// endpoints keep answering so operators can watch the drain in /metrics.
// Drain is idempotent and safe to call from signal handlers.
func (sh *Shell) Drain() { sh.draining.Store(true) }

// Draining reports whether Drain has been called.
func (sh *Shell) Draining() bool { return sh.draining.Load() }

// UptimeSeconds is the time since the shell was built.
func (sh *Shell) UptimeSeconds() float64 { return time.Since(sh.start).Seconds() }

// RefuseIfDraining answers a simulation request with a structured 503 while
// the daemon drains, and reports whether it did.
func (sh *Shell) RefuseIfDraining(w http.ResponseWriter) bool {
	if !sh.draining.Load() {
		return false
	}
	WriteError(w, &APIError{
		Status: http.StatusServiceUnavailable, Code: CodeDraining,
		Message:           sh.name + " is draining; retry against another instance",
		RetryAfterSeconds: RetryAfterSeconds,
	})
	return true
}

// RequestContext applies the per-request deadline: the ?timeout= override
// (clamped to the maximum) or the default. It also returns the deadline's
// length, which the router forwards to workers as their ?timeout= hint so
// both tiers agree on when the request is out of time.
func (sh *Shell) RequestContext(r *http.Request) (context.Context, context.CancelFunc, time.Duration, *APIError) {
	d := sh.defaultTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return nil, nil, 0, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
				Field:   "timeout",
				Message: fmt.Sprintf("timeout %q is not a positive Go duration (e.g. 500ms, 30s)", raw)}
		}
		d = parsed
	}
	if d > sh.maxTimeout {
		d = sh.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, d, nil
}

// Endpoints snapshots every route's serving statistics in the JSON
// /metrics summary form (no histogram buckets).
func (sh *Shell) Endpoints() map[string]EndpointMetrics {
	out := make(map[string]EndpointMetrics, len(sh.metrics))
	for pattern, m := range sh.metrics {
		out[pattern] = m.snapshot(false)
	}
	return out
}

// registerMetrics installs the shell's families: uptime and drain state,
// then request counts and latency histograms per endpoint.
func (sh *Shell) registerMetrics(prefix string) {
	r := sh.reg
	r.GaugeFunc(prefix+"uptime_seconds", "Seconds since the "+sh.name+" was constructed.", sh.UptimeSeconds)
	r.GaugeFunc(prefix+"draining", "1 while the "+sh.name+" is draining, else 0.",
		func() float64 {
			if sh.draining.Load() {
				return 1
			}
			return 0
		})
	requestsHelp := "Requests served, by endpoint pattern and status code."
	latencyHelp := "Request latency in milliseconds, by endpoint pattern."
	if sh.name == "router" {
		// The router's scrapes have always named it in these two.
		requestsHelp = "Requests served by the router, by endpoint pattern and status code."
		latencyHelp = "Router request latency in milliseconds, by endpoint pattern."
	}
	r.Register(prefix+"http_requests_total", requestsHelp,
		obs.TypeCounter, func(emit func(obs.Sample)) {
			for _, pattern := range sh.patterns() {
				snap := sh.metrics[pattern].snapshot(false)
				codes := make([]string, 0, len(snap.ByStatus))
				for code := range snap.ByStatus {
					codes = append(codes, code)
				}
				sort.Strings(codes)
				for _, code := range codes {
					emit(obs.Sample{
						Labels: []obs.Label{{Name: "endpoint", Value: pattern}, {Name: "code", Value: code}},
						Value:  float64(snap.ByStatus[code]),
					})
				}
			}
		})
	r.HistogramFunc(prefix+"http_request_duration_ms", latencyHelp,
		func() []obs.LabeledHist {
			var out []obs.LabeledHist
			for _, pattern := range sh.patterns() {
				snap := sh.metrics[pattern].snapshot(true)
				if snap.LatencyMS.Count == 0 {
					continue
				}
				out = append(out, obs.LabeledHist{
					Labels: []obs.Label{{Name: "endpoint", Value: pattern}},
					Stats:  snap.LatencyMS,
				})
			}
			return out
		})
}

// patterns returns the registered route patterns in stable order.
func (sh *Shell) patterns() []string {
	out := make([]string, 0, len(sh.metrics))
	for pattern := range sh.metrics {
		out = append(out, pattern)
	}
	sort.Strings(out)
	return out
}

// endpointMetrics is one route's serving statistics: request count,
// responses per status, and a millisecond latency histogram (reusing the
// simulator's telemetry histogram, so /metrics reports the same P50/P90/P99
// shape as the pipeline latencies).
type endpointMetrics struct {
	mu       sync.Mutex
	requests int64
	byStatus map[string]int64
	latency  telemetry.Histogram
}

func (m *endpointMetrics) record(status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	if m.byStatus == nil {
		m.byStatus = make(map[string]int64)
	}
	m.byStatus[strconv.Itoa(status)]++
	m.latency.Record(elapsed.Milliseconds())
}

// snapshot copies the counters. The JSON /metrics document keeps the summary
// form (buckets are scrape-time detail that would dwarf the rest of the
// page); the Prometheus exposition passes includeBuckets=true because its
// histogram encoding *is* the buckets.
func (m *endpointMetrics) snapshot(includeBuckets bool) EndpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	by := make(map[string]int64, len(m.byStatus))
	for k, v := range m.byStatus {
		by[k] = v
	}
	stats := m.latency.Stats()
	if !includeBuckets {
		stats.Buckets = nil
	}
	return EndpointMetrics{Requests: m.requests, ByStatus: by, LatencyMS: stats}
}

// statusRecorder captures the response status and size for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// wrap is the middleware applied to every route: a root span under the
// caller's trace ID when it sends one (the router stamps X-Trace-Id on every
// worker request, so route → probe → worker spans correlate under one ID
// across processes) or a fresh one, echoed on the X-Trace-Id response header
// and threaded through the request context; panic-to-500 recovery;
// per-endpoint metrics; and the access record.
func (sh *Shell) wrap(pattern string, m *endpointMetrics, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var inherited obs.TraceID
		if raw := r.Header.Get("X-Trace-Id"); raw != "" {
			if id, err := obs.ParseTraceID(raw); err == nil {
				inherited = id
			}
		}
		root, ctx := obs.StartTraceWithID(r.Context(), inherited, pattern)
		r = r.WithContext(ctx)
		w.Header().Set("X-Trace-Id", root.TraceID().String())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				sh.errorLog.Printf("%s: panic in %s: %v\n%s", sh.name, pattern, p, debug.Stack())
				// Best effort: if the handler already wrote a body the
				// header is gone, but the log above always fires.
				if rec.bytes == 0 {
					WriteError(rec, &APIError{
						Status: http.StatusInternalServerError, Code: CodeInternal,
						Message: "internal error (panic recovered; see " + sh.name + " log)",
					})
				}
			}
			root.Set("status", rec.status)
			root.End()
			elapsed := time.Since(start)
			m.record(rec.status, elapsed)
			if sh.traces == nil && sh.logger == nil {
				return
			}
			snap := root.Snapshot()
			if sh.traces != nil {
				sh.traces.Add(snap)
			}
			sh.logRequest(r, rec, snap, elapsed)
		}()
		h(rec, r)
	})
}

// logRequest emits the structured access record and, above the slow-request
// threshold, a warn-level record with the full span tree inlined — the
// "where did this one request's time go" answer, attached to the log line an
// operator is already looking at.
func (sh *Shell) logRequest(r *http.Request, rec *statusRecorder, snap obs.SpanData, elapsed time.Duration) {
	if sh.logger == nil {
		return
	}
	attrs := []any{
		"trace", snap.TraceID,
		"method", r.Method,
		"path", r.URL.RequestURI(),
		"status", rec.status,
		"bytes", rec.bytes,
		"elapsedMS", float64(elapsed.Microseconds()) / 1000,
		"remote", r.RemoteAddr,
	}
	// Phase timings: one attribute per direct child of the root span, so
	// the flat access record already answers "queued or simulating?".
	for _, c := range snap.Children {
		attrs = append(attrs, "phaseMS_"+c.Name, float64(c.DurationUS)/1000)
	}
	if sh.slowRequest > 0 && elapsed >= sh.slowRequest {
		// The JSON slog handler marshals the tree via encoding/json, so the
		// full span tree lands inlined as structured JSON on the warn line.
		attrs = append(attrs, "slowThreshold", sh.slowRequest.String(), "spans", snap)
		sh.logger.Warn("slow request", attrs...)
		return
	}
	sh.logger.Info("request", attrs...)
}

// WriteJSON writes a JSON response. The encoder settings (two-space indent)
// are part of the wire format: the cluster router uses the same writer, so
// a routed response is byte-identical to a direct one.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // the connection is gone if this fails; nothing to do
}

// WriteError writes a structured error body, mirroring any Retry-After hint
// into the header so plain HTTP clients back off correctly too.
func WriteError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	w.WriteHeader(e.Status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorBody{Error: e})
}
