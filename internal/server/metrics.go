package server

import (
	"runtime"
	"time"

	"regsim/internal/obs"
	"regsim/internal/telemetry"
)

// registerMetrics installs the server's own metric families into the
// registry behind GET /metrics?format=prometheus, after the shell's uptime,
// draining and HTTP families. Everything is collected at scrape time from
// the counters the subsystems already keep (the admission controller's
// atomics, the sweep engine's singleflight counters, the rescache store),
// so serving a scrape adds no cost to the request path.
func (s *Server) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("go_goroutines", "Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})

	// Admission control: the bounds as gauges (so queue-depth panels can
	// show depth against capacity), the live occupancy, and the outcome
	// counters.
	r.GaugeFunc("regsim_admission_slots", "Admission bound on concurrently executing simulation requests.",
		func() float64 { return float64(s.adm.maxInFlight) })
	r.GaugeFunc("regsim_admission_queue_capacity", "Bounded wait-queue capacity in front of the slots.",
		func() float64 { return float64(s.adm.maxQueue) })
	r.GaugeFunc("regsim_admission_in_flight", "Simulation requests currently holding an admission slot.",
		func() float64 { return float64(s.adm.inFlight.Load()) })
	r.GaugeFunc("regsim_admission_waiting", "Requests currently queued for an admission slot.",
		func() float64 { return float64(s.adm.stats().Waiting) })
	r.CounterFunc("regsim_admission_admitted_total", "Requests granted an admission slot.",
		func() float64 { return float64(s.adm.admitted.Load()) })
	r.CounterFunc("regsim_admission_rejected_total", "Requests refused with 429 because the wait queue was full.",
		func() float64 { return float64(s.adm.rejected.Load()) })
	r.CounterFunc("regsim_admission_expired_total", "Requests whose deadline fired while queued for a slot.",
		func() float64 { return float64(s.adm.expired.Load()) })
	r.HistogramFunc("regsim_admission_wait_ms", "Milliseconds spent queued before an admission slot was granted.",
		func() []obs.LabeledHist {
			s.admWaitMu.Lock()
			st := s.admWait.Stats()
			s.admWaitMu.Unlock()
			if st.Count == 0 {
				return nil
			}
			return []obs.LabeledHist{{Stats: st}}
		})

	// Sweep engine and persistent result cache: executions vs. the layers
	// that absorb repeats (the result table, the in-flight singleflight, the
	// cross-process rescache) and siblings (a finished pressure-free run's
	// result).
	sweepStats := func() telemetry.SweepStats { return s.cfg.Suite.SweepStats() }
	r.GaugeFunc("regsim_sweep_workers", "Sweep worker-pool bound.",
		func() float64 { return float64(sweepStats().Workers) })
	r.GaugeFunc("regsim_sweep_active", "Simulations executing right now (active/workers is pool utilization).",
		func() float64 { return float64(sweepStats().Active) })
	r.CounterFunc("regsim_sweep_runs_total", "Simulations actually executed by this process.",
		func() float64 { return float64(sweepStats().Runs) })
	r.CounterFunc("regsim_sweep_shared_total", "Requests answered from a finished sibling run (differing only in register-file size and exception model) instead of simulated.",
		func() float64 { return float64(sweepStats().Shared) })
	r.CounterFunc("regsim_sweep_memo_hits_total", "Requests answered from the in-memory result table.",
		func() float64 { return float64(sweepStats().MemoHits) })
	r.CounterFunc("regsim_sweep_coalesced_total", "Requests that piggybacked on an in-flight execution of the same spec.",
		func() float64 { return float64(sweepStats().Deduped) })
	r.CounterFunc("regsim_sweep_evicted_total", "Result-table entries dropped to keep the table within its byte bound.",
		func() float64 { return float64(sweepStats().Evicted) })
	r.CounterFunc("regsim_rescache_hits_total", "Persistent result-cache hits.",
		func() float64 { return float64(sweepStats().CacheHits) })
	r.CounterFunc("regsim_rescache_misses_total", "Persistent result-cache misses (including defective entries).",
		func() float64 { return float64(sweepStats().CacheMisses) })
	r.CounterFunc("regsim_rescache_errors_total", "Defective persistent-cache entries healed by re-simulation.",
		func() float64 { return float64(sweepStats().CacheErrors) })

	r.CounterFunc("regsim_traces_total", "Request traces recorded (including ones evicted from the debug ring).",
		func() float64 { return float64(s.traces.Total()) })
}

// recordAdmissionWait feeds the admission wait-time histogram.
func (s *Server) recordAdmissionWait(d time.Duration) {
	s.admWaitMu.Lock()
	s.admWait.Record(d.Milliseconds())
	s.admWaitMu.Unlock()
}

// metricsDoc is the JSON GET /metrics document: the suite's sweep/cache
// counters, the admission controller, and per-endpoint request statistics.
func (s *Server) metricsDoc() any {
	return MetricsResponse{
		UptimeSeconds: s.UptimeSeconds(),
		Draining:      s.Draining(),
		Sweep:         s.cfg.Suite.SweepStats(),
		Admission:     s.adm.stats(),
		Endpoints:     s.Endpoints(),
	}
}

// Traces returns the recent-trace ring behind /debug/obs.
func (s *Server) Traces() *obs.Store { return s.traces }
