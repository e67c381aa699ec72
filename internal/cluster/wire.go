package cluster

import (
	"math"
	"net/http"
	"time"

	"regsim/internal/server"
)

// maxRegisterBody bounds a POST /v1/cluster/register body.
const maxRegisterBody = 4 << 10

// ClusterResponse answers GET /v1/cluster: the routing policy, the pool with
// per-worker health and load, and the router's routing counters.
type ClusterResponse struct {
	Policy   string         `json:"policy"`
	Draining bool           `json:"draining"`
	Workers  []WorkerStatus `json:"workers"`

	// Spillovers counts requests redirected off their cache-affine primary
	// by load or health; Reroutes counts attempts moved past a worker that
	// failed or refused mid-request.
	Spillovers    int64   `json:"spillovers"`
	Reroutes      int64   `json:"reroutes"`
	Probes        int64   `json:"probes"`
	ProbeFailures int64   `json:"probeFailures"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// RegisterRequest is the body of POST /v1/cluster/register.
type RegisterRequest struct {
	// URL is the worker's base URL, e.g. "http://10.0.0.7:8265".
	URL string `json:"url"`
}

// RegisterResponse reports the outcome; Added is false when the worker was
// already in the pool (registration is idempotent, so workers can announce
// themselves on every startup).
type RegisterResponse struct {
	Added  bool         `json:"added"`
	Worker WorkerStatus `json:"worker"`
}

// MetricsResponse answers the router's GET /metrics (JSON form): the cluster
// snapshot plus per-endpoint serving statistics, mirroring the worker-side
// document shape.
type MetricsResponse struct {
	UptimeSeconds float64                           `json:"uptimeSeconds"`
	Draining      bool                              `json:"draining"`
	Policy        string                            `json:"policy"`
	Workers       []WorkerStatus                    `json:"workers"`
	Spillovers    int64                             `json:"spillovers"`
	Reroutes      int64                             `json:"reroutes"`
	Probes        int64                             `json:"probes"`
	ProbeFailures int64                             `json:"probeFailures"`
	Endpoints     map[string]server.EndpointMetrics `json:"endpoints"`
}

// noWorkersError: the pool has no member to try at all.
func noWorkersError() *server.APIError {
	return &server.APIError{
		Status: http.StatusServiceUnavailable, Code: CodeNoWorkers,
		Message:           "no workers available in the pool",
		RetryAfterSeconds: server.RetryAfterSeconds,
	}
}

// exhaustedError summarizes a request that ran out of candidates: when any
// worker answered with a retryable refusal the cluster is overloaded (503,
// honouring the largest backoff hint any worker gave); when every attempt
// died on the transport it is an upstream failure (502).
func exhaustedError(sawRefusal bool, refusalHint int, lastErr error) *server.APIError {
	if sawRefusal {
		return &server.APIError{
			Status: http.StatusServiceUnavailable, Code: server.CodeOverloaded,
			Message:           "every worker refused the request (overloaded or draining); retry later",
			RetryAfterSeconds: max(refusalHint, server.RetryAfterSeconds),
		}
	}
	msg := "every worker failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	return &server.APIError{
		Status: http.StatusBadGateway, Code: CodeUpstream,
		Message: msg,
	}
}

// elapsedMS matches the worker-side wall-time rounding (hundredths of a
// millisecond) so router and worker responses carry the same precision.
func elapsedMS(start time.Time) float64 {
	return math.Round(float64(time.Since(start).Microseconds())/10) / 100
}
