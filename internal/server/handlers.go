package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/rftiming"
	"regsim/internal/workload"
)

// Request body bounds: a simulate body is one small spec, a sweep body is at
// most MaxSweepSpecs of them. Both fit comfortably in these.
const (
	maxSimulateBody = 64 << 10
	maxSweepBody    = 4 << 20
)

// FinishSpec fills a request spec's omitted (zero) fields with the paper's
// baseline machine: 4-wide, the width's cost-effective queue, 80 registers
// per file, and the given commit budget. The enum zero values already mean
// the baseline (precise exceptions, lockup-free cache), so a spec naming
// only a bench simulates the paper's default configuration. Both daemons
// default specs with it, so a worker and a router resolve a partial spec
// to the same machine (and the router's routing key to the workers' cache
// key).
func FinishSpec(spec exper.Spec, budget int64) exper.Spec {
	if spec.Width == 0 {
		spec.Width = 4
	}
	if spec.Queue == 0 {
		spec.Queue = exper.CostEffectiveQueue(spec.Width)
	}
	if spec.Regs == 0 {
		spec.Regs = 80
	}
	if spec.Budget == 0 {
		spec.Budget = budget
	}
	return spec
}

// DecodeSpec reads the body of a one-spec request (POST /v1/simulate,
// POST /v1/estimate), fills its defaults with FinishSpec, and validates it.
func DecodeSpec(w http.ResponseWriter, r *http.Request, budget, maxBudget int64) (exper.Spec, *APIError) {
	var spec exper.Spec
	if apiErr := DecodeJSON(w, r, maxSimulateBody, &spec); apiErr != nil {
		return spec, apiErr
	}
	spec = FinishSpec(spec, budget)
	return spec, validateSpec(spec, maxBudget)
}

// DecodeSweep reads the body of POST /v1/sweep, bounds its matrix at
// maxSpecs, and fills and validates every spec, naming a failing one by its
// index in the request.
func DecodeSweep(w http.ResponseWriter, r *http.Request, maxSpecs int, budget, maxBudget int64) ([]exper.Spec, *APIError) {
	var req SweepRequest
	if apiErr := DecodeJSON(w, r, maxSweepBody, &req); apiErr != nil {
		return nil, apiErr
	}
	if len(req.Specs) == 0 {
		return nil, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field: "specs", Message: "specs must name at least one simulation"}
	}
	if len(req.Specs) > maxSpecs {
		return nil, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field:   "specs",
			Message: fmt.Sprintf("sweep of %d specs exceeds the per-request limit %d; split the matrix", len(req.Specs), maxSpecs)}
	}
	specs := make([]exper.Spec, len(req.Specs))
	for i := range req.Specs {
		specs[i] = FinishSpec(req.Specs[i], budget)
		if apiErr := validateSpec(specs[i], maxBudget); apiErr != nil {
			apiErr.Field = fmt.Sprintf("specs[%d].%s", i, apiErr.Field)
			return nil, apiErr
		}
	}
	return specs, nil
}

// DecodeJSON strictly decodes one JSON body into v, mapping the failure
// modes to structured errors: syntax errors and truncation → invalid_json,
// wrong types and unknown fields → invalid_argument (naming the field when
// the decoder knows it), an oversized body → body_too_large. Exported so the
// cluster router decodes request bodies with exactly the same rules as the
// workers.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) *APIError {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Trailing garbage after the JSON value is a malformed request too.
		if dec.More() {
			return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidJSON,
				Message: "request body has trailing data after the JSON value"}
		}
		return nil
	}
	var maxErr *http.MaxBytesError
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &maxErr):
		return &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodeBodyTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
	case errors.As(err, &typeErr):
		return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field:   typeErr.Field,
			Message: fmt.Sprintf("field %q wants %s, got %s", typeErr.Field, typeErr.Type, typeErr.Value)}
	case errors.Is(err, io.EOF):
		return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidJSON,
			Message: "empty request body"}
	case strings.HasPrefix(err.Error(), "json: unknown field"):
		return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Message: err.Error()}
	default:
		// Covers syntax errors, unexpected EOF, and enum-name failures
		// (which carry their own useful message).
		return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidJSON,
			Message: err.Error()}
	}
}

// admit claims an admission slot, translating the failure modes. The wait is
// a span on the request's trace and an observation in the admission wait-time
// histogram, whichever way it ends.
func (s *Server) admit(ctx context.Context) (func(), *APIError) {
	sp, _ := obs.StartSpan(ctx, "admission")
	start := time.Now()
	release, err := s.adm.acquire(ctx)
	s.recordAdmissionWait(time.Since(start))
	if err != nil {
		sp.Set("error", err.Error())
	}
	sp.End()
	if err == nil {
		return release, nil
	}
	if errors.Is(err, errOverloaded) {
		return nil, &APIError{
			Status: http.StatusTooManyRequests, Code: CodeOverloaded,
			Message: fmt.Sprintf("admission queue full (%d executing, %d waiting)",
				s.adm.maxInFlight, s.adm.maxQueue),
			RetryAfterSeconds: RetryAfterSeconds,
		}
	}
	return nil, simError(err)
}

// simError maps a simulation (or queued-admission) failure to its wire form.
func simError(err error) *APIError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &APIError{Status: http.StatusGatewayTimeout, Code: CodeDeadlineExceeded,
			Message: "request deadline exceeded before the simulation finished; raise ?timeout= or shrink the request"}
	case errors.Is(err, context.Canceled):
		// 499: client closed request (nginx convention); the body is for
		// the access log, the client is gone.
		return &APIError{Status: 499, Code: CodeCanceled, Message: "request canceled by the client"}
	default:
		return &APIError{Status: http.StatusInternalServerError, Code: CodeInternal,
			Message: fmt.Sprintf("simulation failed: %v", err)}
	}
}

// handleSimulate runs one spec: POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.RefuseIfDraining(w) {
		return
	}
	start := time.Now()
	spec, apiErr := DecodeSpec(w, r, s.cfg.Suite.Budget, s.cfg.MaxBudget)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	ctx, cancel, _, apiErr := s.RequestContext(r)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	defer cancel()
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	defer release()
	sim, simCtx := obs.StartSpan(ctx, "simulate")
	res, err := s.cfg.Suite.RunContext(simCtx, spec)
	sim.End()
	if err != nil {
		WriteError(w, simError(err))
		return
	}
	WriteJSON(w, http.StatusOK, SimulateResponse{
		Spec:      spec,
		Result:    res,
		ElapsedMS: elapsedMS(start),
	})
}

// handleEstimate answers one spec from the analytical twin: POST /v1/estimate.
// The same decode/default/validate pipeline as /v1/simulate — an estimate for
// a spec the simulator would refuse is worthless — but no admission slot: a
// warm estimate is microseconds of arithmetic, and a cold one's calibration
// fans into the suite's own bounded worker pool. Draining still refuses, since
// a cold calibration is real simulation work.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.RefuseIfDraining(w) {
		return
	}
	start := time.Now()
	s.estimates.Add(1)
	spec, apiErr := DecodeSpec(w, r, s.cfg.Suite.Budget, s.cfg.MaxBudget)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	ctx, cancel, _, apiErr := s.RequestContext(r)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	defer cancel()
	warm := s.twin.Warm(spec.Bench, spec.Width)
	sp, estCtx := obs.StartSpan(ctx, "twin.estimate")
	sp.Set("warm", warm)
	est, err := s.twin.EstimateContext(estCtx, spec)
	sp.End()
	if err != nil {
		WriteError(w, simError(err))
		return
	}
	WriteJSON(w, http.StatusOK, EstimateResponse{
		Spec:       spec,
		Estimate:   est,
		Calibrated: warm,
		ElapsedMS:  elapsedMS(start),
	})
}

// handleSweep runs a spec matrix: POST /v1/sweep. The whole batch shares
// one admission slot (the suite's Jobs field bounds its internal
// parallelism) and one deadline; identical specs within the batch, across
// concurrent requests, and across restarts (persistent cache) simulate at
// most once.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.RefuseIfDraining(w) {
		return
	}
	start := time.Now()
	specs, apiErr := DecodeSweep(w, r, s.cfg.MaxSweepSpecs, s.cfg.Suite.Budget, s.cfg.MaxBudget)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	ctx, cancel, _, apiErr := s.RequestContext(r)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	defer cancel()
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		WriteError(w, apiErr)
		return
	}
	defer release()
	sim, simCtx := obs.StartSpan(ctx, "simulate")
	sim.Set("specs", len(specs))
	results, err := s.cfg.Suite.RunAll(simCtx, specs)
	sim.End()
	if err != nil {
		WriteError(w, simError(err))
		return
	}
	resp := SweepResponse{
		Count:     len(results),
		Results:   make([]SimulateResponse, len(results)),
		ElapsedMS: elapsedMS(start),
	}
	for i, res := range results {
		resp.Results[i] = SimulateResponse{Spec: specs[i], Result: res}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleWorkloads lists the benchmark registry: GET /v1/workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	names := workload.Names()
	resp := WorkloadsResponse{Workloads: make([]WorkloadInfo, 0, len(names))}
	for _, name := range names {
		info, err := workload.Get(name)
		if err != nil {
			WriteError(w, simError(err))
			return
		}
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name: info.Name, FP: info.FP, Description: info.Description,
			PaperLoadFrac: info.PaperLoadFrac, PaperCbrFrac: info.PaperCbrFrac,
			PaperMissRate: info.PaperMissRate, PaperMispRate: info.PaperMispRate,
			PaperCommitIPC: info.PaperCommitI4,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleTiming evaluates the register-file cycle-time model: GET /v1/timing.
// Query parameters mirror cmd/rftime: either width=4|8 (+fp=true for the
// floating-point file's halved ports) or explicit read=&write= ports, plus
// regs=, a comma-separated list of register counts (default: the paper's
// Figure 10 axis).
func (s *Server) handleTiming(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fail := func(field, format string, args ...any) {
		WriteError(w, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field: field, Message: fmt.Sprintf(format, args...)})
	}
	intParam := func(field string, def int) (int, bool) {
		raw := q.Get(field)
		if raw == "" {
			return def, true
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			fail(field, "%s %q is not an integer", field, raw)
			return 0, false
		}
		return n, true
	}
	read, ok := intParam("read", 0)
	if !ok {
		return
	}
	write, ok := intParam("write", 0)
	if !ok {
		return
	}
	if read < 0 || write < 0 {
		fail("read", "port counts cannot be negative (read=%d write=%d)", read, write)
		return
	}
	if (read > 0) != (write > 0) {
		fail("read", "explicit ports need both read= and write= (got read=%d write=%d)", read, write)
		return
	}
	var ports rftiming.Ports
	if read > 0 {
		if read > maxTimingPorts || write > maxTimingPorts {
			fail("read", "port counts out of range [1, %d] (read=%d write=%d)", maxTimingPorts, read, write)
			return
		}
		ports = rftiming.Ports{Read: read, Write: write}
	} else {
		width, ok := intParam("width", 4)
		if !ok {
			return
		}
		if width != 4 && width != 8 {
			fail("width", "issue width %d unsupported (the paper provisions ports for 4 and 8)", width)
			return
		}
		fp := false
		if raw := q.Get("fp"); raw != "" {
			parsed, err := strconv.ParseBool(raw)
			if err != nil {
				fail("fp", "fp %q is not a boolean", raw)
				return
			}
			fp = parsed
		}
		ports = rftiming.PortsFor(width, fp)
	}
	regs := exper.RegSizes
	if raw := q.Get("regs"); raw != "" {
		regs = nil
		for _, field := range strings.Split(raw, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n < 1 || n > maxRegsLimit {
				fail("regs", "bad register count %q (want integers in [1, %d])", field, maxRegsLimit)
				return
			}
			regs = append(regs, n)
		}
		if len(regs) > maxTimingRows {
			fail("regs", "%d register counts exceed the per-request limit %d", len(regs), maxTimingRows)
			return
		}
	}
	params := rftiming.Default05um()
	resp := TimingResponse{ReadPorts: ports.Read, WritePorts: ports.Write}
	for _, n := range regs {
		resp.Rows = append(resp.Rows, breakdownRow(params, n, ports))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// Timing-endpoint bounds: the model is closed-form, so these exist only to
// keep responses sane.
const (
	maxTimingPorts = 256
	maxTimingRows  = 256
)

// handleHealthz: GET /healthz. 200 while serving, 503 while draining (load
// balancers use it to pull the instance before shutdown).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleLoad: GET /v1/load. The cluster router's spillover input: admission
// occupancy, queue depth, and drain state as one small JSON document. Unlike
// /healthz it keeps answering 200 while draining — the router needs the
// snapshot to say "draining", not a refusal.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	adm := s.adm.stats()
	sw := s.cfg.Suite.SweepStats()
	status := "ok"
	draining := s.Draining()
	if draining {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, LoadResponse{
		Status:        status,
		Draining:      draining,
		Admission:     adm,
		QueueDepth:    adm.Waiting,
		Capacity:      adm.MaxInFlight + adm.MaxQueue,
		SweepActive:   sw.Active,
		SweepWorkers:  sw.Workers,
		UptimeSeconds: s.UptimeSeconds(),
	})
}

func elapsedMS(start time.Time) float64 {
	return math.Round(float64(time.Since(start).Microseconds())/10) / 100
}
