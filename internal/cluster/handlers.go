package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/server"
)

// ctxError maps a fired request deadline/cancellation to its wire form
// (matching the worker-side mapping, so clients see one vocabulary).
func ctxError(ctx context.Context) *server.APIError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &server.APIError{
			Status: http.StatusGatewayTimeout, Code: server.CodeDeadlineExceeded,
			Message: "request deadline exceeded before the cluster finished; raise ?timeout= or shrink the request",
		}
	}
	return &server.APIError{Status: 499, Code: server.CodeCanceled, Message: "request canceled by the client"}
}

// handleSimulate routes one spec by its sibling group: POST /v1/simulate.
func (rt *Router) handleSimulate(w http.ResponseWriter, r *http.Request) {
	rt.routeSpec(w, r, groupKey, func(ctx context.Context, c *server.Client, spec exper.Spec) (any, error) {
		return c.Simulate(ctx, spec)
	})
}

// estimateKey is the routing key of an estimate request. Estimates are not
// keyed by the sibling-group fingerprint: the twin's expensive state is its
// per-(bench, width) calibration, shared by every spec on that pair, so
// routing all of a pair's estimates to one worker means the pool calibrates
// each pair once instead of everywhere — the same warm-concentration argument
// as result-cache affinity, one level up.
func estimateKey(spec exper.Spec) string {
	return fmt.Sprintf("twin/%s/w%d", spec.Bench, spec.Width)
}

// handleEstimate routes one estimate by its calibration pair:
// POST /v1/estimate.
func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	rt.routeSpec(w, r, estimateKey, func(ctx context.Context, c *server.Client, spec exper.Spec) (any, error) {
		return c.Estimate(ctx, spec)
	})
}

// routeSpec is the candidate walk of a one-spec request. The spec is
// decoded, defaulted and validated with the worker rules, its routing key's
// preference order computed, and the candidates tried in order through call
// until one answers — a worker that fails on the transport or refuses with
// 429/503 is routed past (reroute), a worker that answers a terminal error
// (validation, simulator failure) speaks for the cluster and its answer
// passes through unchanged.
func (rt *Router) routeSpec(w http.ResponseWriter, r *http.Request, key func(exper.Spec) string,
	call func(context.Context, *server.Client, exper.Spec) (any, error)) {
	if rt.RefuseIfDraining(w) {
		return
	}
	spec, apiErr := server.DecodeSpec(w, r, rt.cfg.DefaultBudget, rt.cfg.MaxBudget)
	if apiErr != nil {
		server.WriteError(w, apiErr)
		return
	}
	ctx, cancel, timeout, apiErr := rt.RequestContext(r)
	if apiErr != nil {
		server.WriteError(w, apiErr)
		return
	}
	defer cancel()

	candidates, spilled := rt.pick(key(spec), nil)
	if len(candidates) == 0 {
		server.WriteError(w, noWorkersError())
		return
	}
	if spilled {
		rt.spillovers.Add(1)
	}
	var (
		sawRefusal  bool
		refusalHint int
		lastErr     error
	)
	for i, wk := range candidates {
		if i > 0 {
			rt.reroutes.Add(1)
		}
		sp, spCtx := obs.StartSpan(ctx, "route")
		sp.Set("worker", wk.name)
		sp.Set("attempt", i+1)
		wk.requests.Add(1)
		resp, err := call(spCtx, wk.client.WithTimeout(timeout), spec)
		if err == nil {
			sp.End()
			wk.noteSuccess()
			server.WriteJSON(w, http.StatusOK, resp)
			return
		}
		sp.Set("error", err.Error())
		sp.End()
		var upstream *server.APIError
		switch {
		case errors.As(err, &upstream) && upstream.IsRetryable():
			// The worker is alive but refusing (full queue, draining):
			// not a health failure, just not this worker right now.
			sawRefusal = true
			refusalHint = max(refusalHint, upstream.RetryAfterSeconds)
		case errors.As(err, &upstream):
			// A terminal answer (validation drift, simulator failure,
			// deadline inside the worker): retrying elsewhere would just
			// repeat it. Pass it through verbatim.
			server.WriteError(w, upstream)
			return
		default:
			// Transport-level death: count it toward the worker's demise
			// and move on — unless the request's own deadline fired or its
			// client went away, which says nothing about the worker.
			if ctx.Err() == nil {
				wk.noteFailure(rt.cfg.DeadAfter, err)
			}
			lastErr = err
		}
		if ctx.Err() != nil {
			server.WriteError(w, ctxError(ctx))
			return
		}
	}
	server.WriteError(w, exhaustedError(sawRefusal, refusalHint, lastErr))
}

// shard is one worker's portion of a sweep round: the original request
// indices it covers (the specs are re-read from the request array, so a
// rerouted shard carries identical specs to the first attempt).
type shard struct {
	worker  *worker
	indices []int
}

// shardOutcome is one shard attempt's result.
type shardOutcome struct {
	shard shard
	resp  *server.SweepResponse
	err   error
}

// handleSweep routes a spec matrix: POST /v1/sweep. The matrix is validated
// up front (so validation errors carry the caller's spec indices), then
// executed in rounds: each round groups the still-pending specs by their
// preferred worker, fires the shards concurrently (chunked at MaxShardSpecs
// per upstream request), merges successes into the response in request
// order, and excludes failed workers from the next round's grouping — a
// worker that dies mid-sweep just means its specs re-shard onto the
// survivors, and the completed sweep is byte-identical to a single-node run.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if rt.RefuseIfDraining(w) {
		return
	}
	start := time.Now()
	specs, apiErr := server.DecodeSweep(w, r, rt.cfg.MaxSweepSpecs, rt.cfg.DefaultBudget, rt.cfg.MaxBudget)
	if apiErr != nil {
		server.WriteError(w, apiErr)
		return
	}
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = groupKey(spec)
	}
	ctx, cancel, timeout, apiErr := rt.RequestContext(r)
	if apiErr != nil {
		server.WriteError(w, apiErr)
		return
	}
	defer cancel()

	pending := make([]int, len(specs))
	for i := range pending {
		pending[i] = i
	}
	results := make([]server.SimulateResponse, len(specs))
	excluded := make(map[string]bool)
	var (
		sawRefusal  bool
		refusalHint int
		lastErr     error
	)
	// One clean pass plus one reroute round per pool member bounds the
	// loop; in practice a single worker death costs exactly one extra
	// round.
	maxRounds := len(rt.pool.workers()) + 1
	for round := 0; round < maxRounds && len(pending) > 0; round++ {
		shards := rt.shardSpecs(pending, keys, excluded)
		if len(shards) == 0 {
			if len(excluded) == 0 {
				break // pool is empty
			}
			// Everything usable has failed once; clear the exclusions and
			// let the remaining rounds give revived workers another try.
			excluded = make(map[string]bool)
			continue
		}
		outcomes := rt.runShards(ctx, shards, specs, timeout, round)
		pending = pending[:0]
		for _, out := range outcomes {
			if out.err == nil {
				out.shard.worker.noteSuccess()
				for j, idx := range out.shard.indices {
					results[idx] = out.resp.Results[j]
				}
				continue
			}
			var upstream *server.APIError
			switch {
			case errors.As(out.err, &upstream) && upstream.IsRetryable():
				sawRefusal = true
				refusalHint = max(refusalHint, upstream.RetryAfterSeconds)
			case errors.As(out.err, &upstream):
				upstream.Field = remapShardField(upstream.Field, out.shard.indices)
				server.WriteError(w, upstream)
				return
			default:
				if ctx.Err() == nil { // as in routeSpec
					out.shard.worker.noteFailure(rt.cfg.DeadAfter, out.err)
				}
				lastErr = out.err
			}
			excluded[out.shard.worker.name] = true
			pending = append(pending, out.shard.indices...)
		}
		if len(pending) > 0 && ctx.Err() != nil {
			server.WriteError(w, ctxError(ctx))
			return
		}
	}
	if len(pending) > 0 {
		if len(rt.pool.workers()) == 0 {
			server.WriteError(w, noWorkersError())
			return
		}
		server.WriteError(w, exhaustedError(sawRefusal, refusalHint, lastErr))
		return
	}
	server.WriteJSON(w, http.StatusOK, server.SweepResponse{
		Count:     len(results),
		Results:   results,
		ElapsedMS: elapsedMS(start),
	})
}

// shardSpecs groups pending spec indices by each spec's preferred worker
// (head of its candidate order, excluding this sweep's failed workers) and
// chunks each group at MaxShardSpecs so no upstream request exceeds a
// worker's own sweep limit.
func (rt *Router) shardSpecs(pending []int, keys []string, excluded map[string]bool) []shard {
	groups := make(map[*worker][]int)
	var order []*worker // deterministic shard order for tests and logs
	for _, idx := range pending {
		candidates, spilled := rt.pick(keys[idx], excluded)
		if len(candidates) == 0 {
			return nil
		}
		if spilled {
			rt.spillovers.Add(1)
		}
		wk := candidates[0]
		if _, ok := groups[wk]; !ok {
			order = append(order, wk)
		}
		groups[wk] = append(groups[wk], idx)
	}
	var shards []shard
	for _, wk := range order {
		indices := groups[wk]
		for len(indices) > rt.cfg.MaxShardSpecs {
			shards = append(shards, shard{worker: wk, indices: indices[:rt.cfg.MaxShardSpecs]})
			indices = indices[rt.cfg.MaxShardSpecs:]
		}
		shards = append(shards, shard{worker: wk, indices: indices})
	}
	return shards
}

// runShards fires one round's shards concurrently and collects every
// outcome. Each shard is a span on the request trace carrying its worker
// and size, and the trace ID rides the upstream call's X-Trace-Id.
func (rt *Router) runShards(ctx context.Context, shards []shard, specs []exper.Spec, timeout time.Duration, round int) []shardOutcome {
	outcomes := make([]shardOutcome, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh shard) {
			defer wg.Done()
			if round > 0 {
				rt.reroutes.Add(1)
			}
			sp, spCtx := obs.StartSpan(ctx, "shard")
			sp.Set("worker", sh.worker.name)
			sp.Set("specs", len(sh.indices))
			sp.Set("round", round)
			sub := make([]exper.Spec, len(sh.indices))
			for j, idx := range sh.indices {
				sub[j] = specs[idx]
			}
			sh.worker.requests.Add(1)
			resp, err := sh.worker.client.WithTimeout(timeout).Sweep(spCtx, sub)
			if err != nil {
				sp.Set("error", err.Error())
			}
			sp.End()
			if err == nil && len(resp.Results) != len(sh.indices) {
				err = fmt.Errorf("worker %s returned %d results for %d specs", sh.worker.name, len(resp.Results), len(sh.indices))
			}
			outcomes[i] = shardOutcome{shard: sh, resp: resp, err: err}
		}(i, sh)
	}
	wg.Wait()
	return outcomes
}

// remapShardField rewrites a worker's shard-relative "specs[j]..." field
// reference back to the caller's original spec index. Pre-validation makes
// these rare (the router applies the same rules first), but a worker with a
// different registry could still refuse a spec the router accepted.
func remapShardField(field string, indices []int) string {
	rest, ok := strings.CutPrefix(field, "specs[")
	if !ok {
		return field
	}
	num, rest, ok := strings.Cut(rest, "]")
	if !ok {
		return field
	}
	j, err := strconv.Atoi(num)
	if err != nil || j < 0 || j >= len(indices) {
		return field
	}
	return fmt.Sprintf("specs[%d]%s", indices[j], rest)
}

// handleProxy forwards a read-only endpoint (GET /v1/workloads, /v1/timing)
// to the first answering worker, byte-for-byte. These answers are
// pool-invariant (every worker runs the same registry and timing model), so
// any healthy worker speaks for the cluster. Each attempt gets ProbeTimeout,
// the bound a worker's GET /v1/load gets: a stalled worker is routed past
// like a dead one instead of hanging the request.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	candidates, _ := rt.pick(r.URL.Path, nil)
	if len(candidates) == 0 {
		server.WriteError(w, noWorkersError())
		return
	}
	var lastErr error
	for i, wk := range candidates {
		if i > 0 {
			rt.reroutes.Add(1)
		}
		wk.requests.Add(1)
		if lastErr = rt.proxyTo(w, r, wk); lastErr == nil {
			wk.noteSuccess()
			return
		}
		if r.Context().Err() != nil {
			// The client went away: the attempt's failure is not the
			// worker's, and nobody is left to answer.
			server.WriteError(w, ctxError(r.Context()))
			return
		}
		wk.noteFailure(rt.cfg.DeadAfter, lastErr)
	}
	server.WriteError(w, exhaustedError(false, 0, lastErr))
}

// proxyTo relays r to one worker under the per-attempt deadline. Any HTTP
// answer — including a structured 4xx — is the cluster's answer and returns
// nil; only a transport failure (a timeout included) returns an error,
// with nothing written.
func (rt *Router) proxyTo(w http.ResponseWriter, r *http.Request, wk *worker) error {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.name+r.URL.RequestURI(), nil)
	if err != nil {
		return err
	}
	if id := obs.TraceIDFromContext(r.Context()); id != 0 {
		req.Header.Set("X-Trace-Id", id.String())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) // connection loss mid-copy is unrecoverable anyway
	return nil
}

// handleCluster reports the pool: GET /v1/cluster.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, ClusterResponse{
		Policy:        string(rt.cfg.Policy),
		Draining:      rt.Draining(),
		Workers:       rt.Workers(),
		Spillovers:    rt.spillovers.Load(),
		Reroutes:      rt.reroutes.Load(),
		Probes:        rt.probes.Load(),
		ProbeFailures: rt.probeFails.Load(),
		UptimeSeconds: rt.UptimeSeconds(),
	})
}

// handleRegister adds a worker at runtime: POST /v1/cluster/register. The
// new member is probed synchronously so its first load snapshot exists
// before the response — a registering worker is routable the moment the 200
// lands.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if apiErr := server.DecodeJSON(w, r, maxRegisterBody, &req); apiErr != nil {
		server.WriteError(w, apiErr)
		return
	}
	if req.URL == "" {
		server.WriteError(w, &server.APIError{
			Status: http.StatusBadRequest, Code: server.CodeInvalidArgument,
			Field: "url", Message: "url is required",
		})
		return
	}
	name, err := normalizeWorkerURL(req.URL)
	if err != nil {
		server.WriteError(w, &server.APIError{
			Status: http.StatusBadRequest, Code: server.CodeInvalidArgument,
			Field: "url", Message: err.Error(),
		})
		return
	}
	added, err := rt.Register(name)
	if err != nil {
		server.WriteError(w, &server.APIError{
			Status: http.StatusBadRequest, Code: server.CodeInvalidArgument,
			Field: "url", Message: err.Error(),
		})
		return
	}
	wk := rt.pool.get(name)
	rt.probe(r.Context(), wk)
	server.WriteJSON(w, http.StatusOK, RegisterResponse{Added: added, Worker: wk.status()})
}

// handleHealthz: GET /healthz. 200 while the router can route, 503 while
// draining or when the entire pool is dead (a router with no live workers is
// down as far as a load balancer should care).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.Draining() {
		server.WriteJSON(w, http.StatusServiceUnavailable, server.HealthResponse{Status: "draining"})
		return
	}
	alive := 0
	for _, wk := range rt.pool.workers() {
		if wk.getState() != stateDead {
			alive++
		}
	}
	if alive == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, server.HealthResponse{Status: "no_workers"})
		return
	}
	server.WriteJSON(w, http.StatusOK, server.HealthResponse{Status: "ok"})
}
