package server

import (
	"fmt"
	"math"
	"net/http"

	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/rftiming"
	"regsim/internal/telemetry"
	"regsim/internal/twin"
	"regsim/internal/workload"
)

// Error codes carried in structured error bodies. Clients branch on the
// code, never on the message text.
const (
	CodeInvalidJSON      = "invalid_json"      // unparsable request body
	CodeInvalidArgument  = "invalid_argument"  // a field failed validation
	CodeUnknownWorkload  = "unknown_workload"  // bench names no registered benchmark
	CodeDeadlineExceeded = "deadline_exceeded" // the request deadline fired mid-simulation
	CodeCanceled         = "canceled"          // the client went away mid-simulation
	CodeOverloaded       = "overloaded"        // admission queue full; retry later
	CodeDraining         = "draining"          // server is shutting down; retry elsewhere
	CodeBodyTooLarge     = "body_too_large"    // request body over the size limit
	CodeNotFound         = "not_found"
	CodeInternal         = "internal" // simulator failure or handler panic
)

// APIError is the structured error of every non-2xx response, carried on the
// wire as {"error": {...}}. It doubles as the typed error the Go client
// returns, so servers and clients share one vocabulary.
type APIError struct {
	// Status is the HTTP status code (not serialised in the body; the
	// client fills it from the response line).
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// Field names the offending request field for validation errors.
	Field string `json:"field,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503
	// responses: the client's backoff hint.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// Error renders the error for logs and error chains.
func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("api error %d %s (field %s): %s", e.Status, e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("api error %d %s: %s", e.Status, e.Code, e.Message)
}

// IsRetryable reports whether the request may succeed if simply retried
// after the backoff hint: admission overflow and drain refusals are
// retryable, validation and simulator errors are not.
func (e *APIError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// errorBody is the JSON envelope of an error response.
type errorBody struct {
	Error *APIError `json:"error"`
}

// SimulateResponse answers POST /v1/simulate: the fully-defaulted spec that
// was actually simulated (so callers see what the omitted fields resolved
// to) and its result.
type SimulateResponse struct {
	Spec   exper.Spec   `json:"spec"`
	Result *core.Result `json:"result"`
	// ElapsedMS is the server-side wall time of this request, queueing
	// included. A warm cache or a coalesced join makes it collapse.
	ElapsedMS float64 `json:"elapsedMS"`
}

// EstimateResponse answers POST /v1/estimate: the fully-defaulted spec and
// the analytical twin's closed-form prediction for it — no cycle loop ran
// (beyond the twin's one-time per-workload calibration). The same envelope
// conventions as /v1/simulate: callers see what omitted fields resolved to,
// and ElapsedMS is server-side wall time.
type EstimateResponse struct {
	Spec     exper.Spec    `json:"spec"`
	Estimate twin.Estimate `json:"estimate"`
	// Calibrated reports whether the (bench, width) calibration was already
	// warm when this request arrived — a cold first request pays the
	// calibration simulations, every later one is microseconds.
	Calibrated bool    `json:"calibrated"`
	ElapsedMS  float64 `json:"elapsedMS"`
}

// SweepRequest is the body of POST /v1/sweep: a spec matrix executed as one
// batch. Identical specs — within the batch, across concurrent requests,
// and across processes via the persistent cache — simulate at most once.
type SweepRequest struct {
	Specs []exper.Spec `json:"specs"`
}

// SweepResponse answers POST /v1/sweep. Results are in request order.
type SweepResponse struct {
	Count     int                `json:"count"`
	Results   []SimulateResponse `json:"results"`
	ElapsedMS float64            `json:"elapsedMS"`
}

// WorkloadInfo is one /v1/workloads entry: a benchmark stand-in and the
// paper's Table 1 reference characteristics that guided its construction.
type WorkloadInfo struct {
	Name        string `json:"name"`
	FP          bool   `json:"fp"`
	Description string `json:"description"`

	PaperLoadFrac  float64 `json:"paperLoadFrac"`
	PaperCbrFrac   float64 `json:"paperCbrFrac"`
	PaperMissRate  float64 `json:"paperMissRate"`
	PaperMispRate  float64 `json:"paperMispRate"`
	PaperCommitIPC float64 `json:"paperCommitIPC4"`
}

// WorkloadsResponse answers GET /v1/workloads in Table 1 order.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

// TimingRow is one register-file size's cycle-time model evaluation.
type TimingRow struct {
	Regs         int     `json:"regs"`
	DecodeNS     float64 `json:"decodeNS"`
	WordlineNS   float64 `json:"wordlineNS"`
	BitlineNS    float64 `json:"bitlineNS"`
	SenseNS      float64 `json:"senseNS"`
	OutputNS     float64 `json:"outputNS"`
	AccessNS     float64 `json:"accessNS"`
	CycleNS      float64 `json:"cycleNS"`
	AreaSquareMM float64 `json:"areaSquareMM"`
}

// TimingResponse answers GET /v1/timing: the port configuration that was
// evaluated and one row per requested register count.
type TimingResponse struct {
	ReadPorts  int         `json:"readPorts"`
	WritePorts int         `json:"writePorts"`
	Rows       []TimingRow `json:"rows"`
}

// EndpointMetrics is one route's serving statistics.
type EndpointMetrics struct {
	Requests int64 `json:"requests"`
	// ByStatus counts responses per HTTP status code (keys are decimal
	// status strings, JSON objects cannot have integer keys).
	ByStatus map[string]int64 `json:"byStatus"`
	// LatencyMS is the request-latency histogram in milliseconds.
	LatencyMS telemetry.HistStats `json:"latencyMS"`
}

// AdmissionStats is the admission controller's snapshot.
type AdmissionStats struct {
	MaxInFlight int   `json:"maxInFlight"`
	MaxQueue    int   `json:"maxQueue"`
	InFlight    int64 `json:"inFlight"`
	Waiting     int64 `json:"waiting"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	Expired     int64 `json:"expired"`
}

// MetricsResponse answers GET /metrics: the suite's sweep/cache counters,
// the admission controller, and per-endpoint request statistics.
type MetricsResponse struct {
	UptimeSeconds float64                    `json:"uptimeSeconds"`
	Draining      bool                       `json:"draining"`
	Sweep         telemetry.SweepStats       `json:"sweep"`
	Admission     AdmissionStats             `json:"admission"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
}

// LoadResponse answers GET /v1/load: the worker-side load snapshot a cluster
// router bases spillover decisions on. It is the admission controller's live
// occupancy plus the drain flag as one small JSON document, so the router
// never has to scrape and parse the Prometheus text exposition on the probe
// path.
type LoadResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining"`

	// Admission is the controller snapshot: InFlight/Waiting are the live
	// occupancy, MaxInFlight/MaxQueue the capacity they fill.
	Admission AdmissionStats `json:"admission"`
	// QueueDepth duplicates Admission.Waiting (the number a spillover
	// decision reads first).
	QueueDepth int64 `json:"queueDepth"`
	// Capacity is MaxInFlight+MaxQueue: the occupancy at which the next
	// request is refused with 429.
	Capacity int `json:"capacity"`

	// SweepActive/SweepWorkers are the simulation pool's instantaneous
	// utilization (distinct from admission: one admitted sweep request fans
	// out to up to SweepWorkers simulations).
	SweepActive  int64 `json:"sweepActive"`
	SweepWorkers int   `json:"sweepWorkers"`

	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// Spec validation bounds. The simulator itself rejects structurally
// impossible machines; these are the serving layer's tighter limits so one
// request cannot ask for an absurdly large simulation.
const (
	maxQueueSize = 4096
	maxRegsLimit = 4096
)

// validateSpec checks a fully-defaulted spec, returning a structured
// validation error naming the offending field. The router validates through
// the same DecodeSpec/DecodeSweep as the workers, so a validation failure is
// reported once with the caller's spec index intact instead of surfacing
// from a worker with a shard-relative index.
func validateSpec(spec exper.Spec, maxBudget int64) *APIError {
	fail := func(field, format string, args ...any) *APIError {
		return &APIError{
			Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field: field, Message: fmt.Sprintf(format, args...),
		}
	}
	if spec.Bench == "" {
		return fail("bench", "bench is required; see GET /v1/workloads for the registry")
	}
	if _, err := workload.Get(spec.Bench); err != nil {
		return &APIError{
			Status: http.StatusBadRequest, Code: CodeUnknownWorkload,
			Field:   "bench",
			Message: fmt.Sprintf("unknown workload %q (have %v)", spec.Bench, workload.Names()),
		}
	}
	if spec.Width != 4 && spec.Width != 8 {
		return fail("width", "issue width %d unsupported (the machine model supports 4 and 8)", spec.Width)
	}
	if spec.Queue < 1 || spec.Queue > maxQueueSize {
		return fail("queue", "dispatch-queue size %d out of range [1, %d]", spec.Queue, maxQueueSize)
	}
	if spec.Regs < rename.MinRegsPerFile || spec.Regs > maxRegsLimit {
		return fail("regs", "register-file size %d out of range [%d, %d]", spec.Regs, rename.MinRegsPerFile, maxRegsLimit)
	}
	if spec.Budget < 1 || spec.Budget > maxBudget {
		return fail("budget", "commit budget %d out of range [1, %d]", spec.Budget, maxBudget)
	}
	return nil
}

// round3 keeps wire floats readable (the model's precision is far coarser
// than a float64's 17 digits).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// breakdownRow converts one rftiming evaluation to its wire row.
func breakdownRow(params rftiming.Params, regs int, ports rftiming.Ports) TimingRow {
	d := params.Delays(regs, ports)
	g := params.Geometry(regs, ports)
	return TimingRow{
		Regs:     regs,
		DecodeNS: round3(d.Decode), WordlineNS: round3(d.Wordline), BitlineNS: round3(d.Bitline),
		SenseNS: round3(d.Sense), OutputNS: round3(d.Output),
		AccessNS: round3(d.Access), CycleNS: round3(d.Cycle),
		AreaSquareMM: round3(g.AreaSquareMM),
	}
}
