package cluster

import (
	"regsim/internal/obs"
)

// registerMetrics installs the router's own metric families, after the
// shell's uptime, draining and HTTP families. The naming mirrors the
// worker-side regsim_* families with a regsim_router_ prefix, and the
// per-worker families are labelled by worker base URL — so a warm-hit
// concentration dashboard can join the router's routing counters against
// each worker's own regsim_rescache_hits_total.
func (rt *Router) registerMetrics(r *obs.Registry) {
	// Routing decisions: the counters that say whether affinity is holding
	// (spillovers and reroutes should be rare against requests).
	r.CounterFunc("regsim_router_spillovers_total", "Requests redirected off their cache-affine primary by load or health.",
		func() float64 { return float64(rt.spillovers.Load()) })
	r.CounterFunc("regsim_router_reroutes_total", "Attempts moved past a worker that failed or refused mid-request.",
		func() float64 { return float64(rt.reroutes.Load()) })
	r.CounterFunc("regsim_router_probes_total", "Health/load probes issued.",
		func() float64 { return float64(rt.probes.Load()) })
	r.CounterFunc("regsim_router_probe_failures_total", "Health/load probes that failed.",
		func() float64 { return float64(rt.probeFails.Load()) })

	// Pool state: member counts per state plus per-worker detail.
	r.Register("regsim_router_workers", "Pool members by health state.",
		obs.TypeGauge, func(emit func(obs.Sample)) {
			counts := make(map[string]int)
			for _, w := range rt.pool.workers() {
				counts[w.getState().String()]++
			}
			for _, state := range []string{"unknown", "healthy", "degraded", "dead"} {
				emit(obs.Sample{
					Labels: []obs.Label{{Name: "state", Value: state}},
					Value:  float64(counts[state]),
				})
			}
		})
	r.Register("regsim_router_worker_up", "1 when the worker is routable (not dead), by worker base URL.",
		obs.TypeGauge, func(emit func(obs.Sample)) {
			for _, w := range rt.pool.workers() {
				up := 1.0
				if w.getState() == stateDead {
					up = 0
				}
				emit(obs.Sample{Labels: []obs.Label{{Name: "worker", Value: w.name}}, Value: up})
			}
		})
	r.Register("regsim_router_worker_requests_total", "Upstream calls attempted, by worker base URL.",
		obs.TypeCounter, func(emit func(obs.Sample)) {
			for _, w := range rt.pool.workers() {
				emit(obs.Sample{Labels: []obs.Label{{Name: "worker", Value: w.name}}, Value: float64(w.requests.Load())})
			}
		})
	r.Register("regsim_router_worker_failures_total", "Upstream transport failures, by worker base URL.",
		obs.TypeCounter, func(emit func(obs.Sample)) {
			for _, w := range rt.pool.workers() {
				emit(obs.Sample{Labels: []obs.Label{{Name: "worker", Value: w.name}}, Value: float64(w.failures.Load())})
			}
		})
	r.Register("regsim_router_worker_occupancy", "Admission occupancy fraction from the last fresh load snapshot, by worker base URL.",
		obs.TypeGauge, func(emit func(obs.Sample)) {
			for _, w := range rt.pool.workers() {
				occ, ok := w.occupancy(rt.loadMaxAge)
				if !ok {
					continue
				}
				emit(obs.Sample{Labels: []obs.Label{{Name: "worker", Value: w.name}}, Value: occ})
			}
		})

}

// metricsDoc is the router's JSON GET /metrics document: the cluster
// snapshot plus per-endpoint serving statistics.
func (rt *Router) metricsDoc() any {
	return MetricsResponse{
		UptimeSeconds: rt.UptimeSeconds(),
		Draining:      rt.Draining(),
		Policy:        string(rt.cfg.Policy),
		Workers:       rt.Workers(),
		Spillovers:    rt.spillovers.Load(),
		Reroutes:      rt.reroutes.Load(),
		Probes:        rt.probes.Load(),
		ProbeFailures: rt.probeFails.Load(),
		Endpoints:     rt.Endpoints(),
	}
}
