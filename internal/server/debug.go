package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"

	"regsim/internal/obs"
	"regsim/internal/telemetry"
	"regsim/internal/trace"
)

// DebugHandler returns the operator debugging surface, meant for a separate
// listener (cmd/regsimd's -debug-addr) so it is never exposed on the serving
// port:
//
//	GET /debug/pprof/...      net/http/pprof profiles
//	GET /debug/obs            JSON snapshot: runtime, admission, sweep, recent traces
//	GET /debug/obs/trace?id=  one recent trace as Chrome trace-event JSON (Perfetto)
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/obs", s.handleDebugObs)
	mux.HandleFunc("GET /debug/obs/trace", s.handleDebugTrace)
	return mux
}

// debugObsResponse is the /debug/obs document: one page with everything an
// operator reaches for first during an incident.
type debugObsResponse struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Draining      bool    `json:"draining"`

	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`

	Admission AdmissionStats       `json:"admission"`
	Sweep     telemetry.SweepStats `json:"sweep"`
	TracesTot int64                `json:"tracesTotal"`
	Traces    []obs.SpanData       `json:"traces"`
}

// handleDebugObs: GET /debug/obs.
func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	WriteJSON(w, http.StatusOK, debugObsResponse{
		UptimeSeconds:  s.UptimeSeconds(),
		Draining:       s.Draining(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		Admission:      s.adm.stats(),
		Sweep:          s.cfg.Suite.SweepStats(),
		TracesTot:      s.traces.Total(),
		Traces:         s.traces.Recent(),
	})
}

// handleDebugTrace: GET /debug/obs/trace?id=<16-hex trace ID>. Exports one
// recent request's span tree as Chrome trace-event JSON, loadable in
// ui.perfetto.dev — the trace ID comes straight off an access-log line or an
// X-Trace-Id response header.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		WriteError(w, &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Field: "id", Message: "id is required (the 16-hex trace ID from an access-log line)"})
		return
	}
	root, ok := s.traces.Get(id)
	if !ok {
		WriteError(w, &APIError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: fmt.Sprintf("trace %q not in the recent-trace ring (it may have been evicted; see /debug/obs for the current ring)", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=trace-%s.json", id))
	trace.ChromeSpans(w, root) // the connection is gone if this fails
}
