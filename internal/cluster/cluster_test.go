package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/server"
	"regsim/internal/workload"
)

// testBudget keeps cluster-level simulations fast; routing behaviour is
// budget-independent (but the router's DefaultBudget must match the workers'
// suite budget, exactly as in production, or routing keys diverge from cache
// keys).
const testBudget = 3_000

// testWorker is one in-process regsimd stand-in: a real server.Server over a
// fresh suite behind an httptest listener, optionally wrapped (fault
// injection).
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
}

func (w *testWorker) url() string { return w.ts.URL }

func newTestWorker(t *testing.T, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	suite := exper.NewSuite(testBudget)
	suite.Jobs = 2
	srv, err := server.New(server.Config{Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}
}

// newTestRouter builds a router over the given worker URLs with background
// probing disabled (tests drive ProbeAll directly) and serves it from an
// httptest listener.
func newTestRouter(t *testing.T, workers []string, mutate func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:       workers,
		DefaultBudget: testBudget,
		ProbeInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// specFamily returns n (at most 108) valid specs in n distinct sibling
// groups, for routing tests that need a spread of routing keys. The router
// keys a spec by its sibling group, so the family varies bench × width ×
// queue: a family varying only the register file would be one group, routed
// to one worker.
func specFamily(n int) []exper.Spec {
	benches := workload.Names()
	nb, nw := len(benches), len(exper.Widths)
	specs := make([]exper.Spec, n)
	for i := range specs {
		specs[i] = exper.Spec{
			Bench: benches[i%nb],
			Width: exper.Widths[i/nb%nw],
			Queue: exper.QueueSizes[i/(nb*nw)%len(exper.QueueSizes)],
		}
	}
	return specs
}

// executed is how many specs a worker's suite answered by running its
// simulate path: simulated, or served by a finished sibling.
func executed(w *testWorker) int64 {
	st := w.srv.Suite().SweepStats()
	return st.Runs + st.Shared
}

// specsPreferring partitions a candidate spec family by which worker heads
// its preference order, returning wantEach specs per worker. Worker
// identities are httptest URLs (random ports), so tests that need "a spec
// that routes to THIS worker" must compute the split rather than assume it.
func specsPreferring(t *testing.T, rt *Router, family []exper.Spec, wantEach int) map[string][]exper.Spec {
	t.Helper()
	out := make(map[string][]exper.Spec)
	for _, raw := range family {
		spec := server.FinishSpec(raw, rt.cfg.DefaultBudget)
		head := rankByHRW(rt.pool.workers(), groupKey(spec))[0].name
		if len(out[head]) < wantEach {
			out[head] = append(out[head], spec)
		}
	}
	for _, w := range rt.pool.workers() {
		if len(out[w.name]) < wantEach {
			t.Fatalf("spec family of %d too small to give %s %d preferring specs", len(family), w.name, wantEach)
		}
	}
	return out
}

// postJSON fires one raw JSON POST and returns status and body bytes (raw,
// for byte-identity comparisons).
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// sweepResults extracts the raw "results" array from a sweep response body.
func sweepResults(t *testing.T, body []byte) string {
	t.Helper()
	var envelope struct {
		Count   int             `json:"count"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("sweep response: %v\n%s", err, body)
	}
	return string(envelope.Results)
}

// TestAffinityRoutesRepeatsToOneWorker: the tentpole property in miniature —
// the same spec simulated twice through the router must execute exactly once
// across the whole pool, because both requests land on the same worker and
// the second is a memo hit.
func TestAffinityRoutesRepeatsToOneWorker(t *testing.T) {
	w1 := newTestWorker(t, nil)
	w2 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)

	client := server.NewClient(ts.URL)
	spec := exper.Spec{Bench: "compress"}
	first, err := client.Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Simulate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	runs := w1.srv.Suite().SweepStats().Runs + w2.srv.Suite().SweepStats().Runs
	if runs != 1 {
		t.Fatalf("two identical simulates through the router ran %d simulations, want 1", runs)
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeat simulate disagreed:\n%s\n%s", a, b)
	}
}

// TestSiblingGroupRouting: the routing key is the spec's sibling group, so
// every spec of a group — any register-file size, either exception model —
// ranks the same worker first, where the group's pressure-free trunk can
// answer the rest. Groups still spread: Fig. 7's 864 specs form 54 groups,
// and both workers of a two-worker pool own some of them.
func TestSiblingGroupRouting(t *testing.T) {
	rt, err := New(Config{
		Workers:       []string{"http://worker-a:8265", "http://worker-b:8265"},
		DefaultBudget: testBudget,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	home := make(map[exper.Spec]string)
	owned := make(map[string]int)
	specs := 0
	for _, bench := range workload.Names() {
		for _, width := range exper.Widths {
			for _, kind := range []cache.Kind{cache.Perfect, cache.LockupFree, cache.Lockup} {
				for _, regs := range exper.RegSizes {
					for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
						specs++
						spec := server.FinishSpec(exper.Spec{
							Bench: bench, Width: width, Queue: exper.CostEffectiveQueue(width),
							Regs: regs, Model: model, Cache: kind,
						}, rt.cfg.DefaultBudget)
						head := rankByHRW(rt.pool.workers(), groupKey(spec))[0].name
						group := exper.SiblingGroup(spec)
						prev, seen := home[group]
						if !seen {
							home[group] = head
							owned[head]++
						} else if prev != head {
							t.Fatalf("%+v ranks %s first, its group %s", spec, head, prev)
						}
					}
				}
			}
		}
	}
	if specs != 864 || len(home) != 54 {
		t.Fatalf("Fig. 7 matrix: %d specs in %d groups, want 864 in 54", specs, len(home))
	}
	if len(owned) != 2 {
		t.Errorf("54 groups did not spread over both workers: %v", owned)
	}
	t.Logf("groups per worker: %v", owned)
}

// TestSweepMergesInRequestOrder: a routed sweep's results must be
// byte-identical to a single-node run of the same matrix — sharding and
// merging is invisible in the response.
func TestSweepMergesInRequestOrder(t *testing.T) {
	w1 := newTestWorker(t, nil)
	w2 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)
	single := newTestWorker(t, nil)

	// Each spec of the family twice: as a pressure-free trunk candidate
	// and as its register-file sibling, so sharing happens behind the
	// router as it does on the single node.
	var specs []exper.Spec
	for _, spec := range specFamily(6) {
		for _, regs := range []int{256, 160} {
			spec.Regs = regs
			specs = append(specs, spec)
		}
	}
	req := server.SweepRequest{Specs: specs}
	status, routed := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("routed sweep: HTTP %d\n%s", status, routed)
	}
	status, direct := postJSON(t, single.url()+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("direct sweep: HTTP %d\n%s", status, direct)
	}
	if got, want := sweepResults(t, routed), sweepResults(t, direct); got != want {
		t.Fatalf("routed sweep results differ from single-node run:\nrouted:  %.300s\ndirect:  %.300s", got, want)
	}
	if n := executed(w1) + executed(w2); n != int64(len(specs)) {
		t.Fatalf("pool executed %d specs for %d distinct specs", n, len(specs))
	}
}

// TestKillWorkerMidSweepReroutes is the failover acceptance test: a worker
// that dies when the sweep traffic reaches it must not fail the sweep — its
// shard re-routes to the survivor and the merged response is byte-identical
// to a single-node run.
func TestKillWorkerMidSweepReroutes(t *testing.T) {
	// w1 drops dead the moment sweep traffic arrives: the first POST
	// /v1/sweep (and everything after it) hijacks the connection and slams
	// it shut — the client sees a transport error, exactly like a SIGKILL.
	var dead atomic.Bool
	kill := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" {
				dead.Store(true)
			}
			if dead.Load() {
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
					}
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	w1 := newTestWorker(t, kill)
	w2 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)
	single := newTestWorker(t, nil)

	// Build a matrix guaranteed to shard onto both workers, so the doomed
	// worker definitely receives (and kills) its shard.
	split := specsPreferring(t, rt, specFamily(40), 3)
	var specs []exper.Spec
	for _, w := range rt.pool.workers() {
		specs = append(specs, split[w.name]...)
	}
	req := server.SweepRequest{Specs: specs}

	status, routed := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep with a dying worker: HTTP %d\n%s", status, routed)
	}
	if !dead.Load() {
		t.Fatal("the doomed worker never saw sweep traffic; the test routed nothing at it")
	}
	if rt.reroutes.Load() == 0 {
		t.Fatal("sweep completed without a reroute despite a dead worker")
	}
	status, direct := postJSON(t, single.url()+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("single-node sweep: HTTP %d\n%s", status, direct)
	}
	if got, want := sweepResults(t, routed), sweepResults(t, direct); got != want {
		t.Fatalf("post-failover results differ from single-node run:\nrouted: %.300s\ndirect: %.300s", got, want)
	}
	// The survivor executed everything; the corpse's failure is on the
	// books.
	if n := executed(w2); n != int64(len(specs)) {
		t.Errorf("survivor executed %d of %d specs", n, len(specs))
	}
	for _, ws := range rt.Workers() {
		if ws.Name == w1.url() && ws.Failures == 0 {
			t.Errorf("dead worker shows no failures: %+v", ws)
		}
	}
}

// TestAffinityBeatsRoundRobinWarmHits is the cache-affinity acceptance test:
// replaying the same workload through a fingerprint-routed pool must produce
// strictly more warm (memo) hits than through a round-robin-routed pool —
// the measured form of the paper's "route to where the state already is".
func TestAffinityBeatsRoundRobinWarmHits(t *testing.T) {
	// An odd spec count makes the round-robin cursor flip every spec to the
	// other worker on the replay, so the baseline's warm-hit rate collapses
	// rather than riding luck.
	specs := specFamily(5)
	run := func(policy Policy) (memoHits, runs int64) {
		w1 := newTestWorker(t, nil)
		w2 := newTestWorker(t, nil)
		_, ts := newTestRouter(t, []string{w1.url(), w2.url()}, func(cfg *Config) {
			cfg.Policy = policy
		})
		client := server.NewClient(ts.URL)
		for pass := 0; pass < 2; pass++ {
			if _, err := client.Sweep(context.Background(), specs); err != nil {
				t.Fatalf("%s pass %d: %v", policy, pass, err)
			}
		}
		s1, s2 := w1.srv.Suite().SweepStats(), w2.srv.Suite().SweepStats()
		return s1.MemoHits + s2.MemoHits, executed(w1) + executed(w2)
	}
	affinityHits, affinityRuns := run(PolicyAffinity)
	rrHits, rrRuns := run(PolicyRoundRobin)
	if affinityHits <= rrHits {
		t.Fatalf("affinity warm hits %d not strictly above round-robin %d", affinityHits, rrHits)
	}
	// Affinity replays entirely warm: every spec simulated once, pool-wide.
	if affinityHits != int64(len(specs)) || affinityRuns != int64(len(specs)) {
		t.Errorf("affinity: %d hits / %d runs, want %d / %d", affinityHits, affinityRuns, len(specs), len(specs))
	}
	if rrRuns <= affinityRuns {
		t.Errorf("round-robin ran %d simulations, expected more than affinity's %d (cold repeats)", rrRuns, affinityRuns)
	}
}

// TestSaturationSpillover: a fresh load snapshot at/above the threshold must
// push the preferred worker behind the alternative; with everything
// saturated the preference order comes back (spilling everywhere is spilling
// nowhere).
func TestSaturationSpillover(t *testing.T) {
	rt, err := New(Config{
		Workers:       []string{"http://worker-a:8265", "http://worker-b:8265"},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	key := "feedfacefeedface"
	ranked := rankByHRW(rt.pool.workers(), key)

	order, spilled := rt.pick(key, nil)
	if spilled || order[0] != ranked[0] {
		t.Fatalf("unloaded pool must follow preference order (spilled=%v)", spilled)
	}

	full := &server.LoadResponse{
		Status: "ok", Capacity: 10,
		Admission: server.AdmissionStats{InFlight: 9, Waiting: 1},
	}
	ranked[0].noteLoad(full)
	order, spilled = rt.pick(key, nil)
	if !spilled || order[0] != ranked[1] {
		t.Fatalf("saturated primary not spilled past: head=%s spilled=%v", order[0].name, spilled)
	}
	if rt.cfg.Policy != PolicyAffinity {
		t.Fatal("default policy must be affinity")
	}

	ranked[1].noteLoad(full)
	order, spilled = rt.pick(key, nil)
	if spilled || order[0] != ranked[0] {
		t.Fatalf("uniformly saturated pool must fall back to preference order: head=%s spilled=%v", order[0].name, spilled)
	}

	// A draining worker sinks below a merely saturated one.
	ranked[0].noteLoad(&server.LoadResponse{Status: "draining", Draining: true, Capacity: 10})
	order, _ = rt.pick(key, nil)
	if order[0] != ranked[1] {
		t.Fatalf("draining worker outranked a live one: head=%s", order[0].name)
	}
}

// TestRerouteOn429: a worker refusing with 429 is routed past (and NOT
// counted toward its death — it answered, it is alive), and the request
// succeeds on the spillover target.
func TestRerouteOn429(t *testing.T) {
	refusals := atomic.Int64{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refusals.Add(1)
		server.WriteError(w, &server.APIError{
			Status: http.StatusTooManyRequests, Code: server.CodeOverloaded,
			Message: "stub full", RetryAfterSeconds: 1,
		})
	}))
	defer stub.Close()
	real := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{stub.URL, real.url()}, nil)

	// Pick a spec whose preference order leads with the stub, so the 429 is
	// actually on the routed path.
	split := specsPreferring(t, rt, specFamily(40), 1)
	spec := split[rt.pool.get(normalizedURL(t, stub.URL)).name][0]

	client := server.NewClient(ts.URL)
	resp, err := client.Simulate(context.Background(), spec)
	if err != nil {
		t.Fatalf("simulate with a refusing primary: %v", err)
	}
	if resp.Result == nil {
		t.Fatal("no result from the spillover target")
	}
	if refusals.Load() == 0 {
		t.Fatal("stub never refused; the spec did not prefer it")
	}
	if rt.reroutes.Load() == 0 {
		t.Fatal("429 did not count as a reroute")
	}
	if st := rt.pool.get(normalizedURL(t, stub.URL)).getState(); st == stateDead {
		t.Fatalf("a refusing (alive) worker was declared dead")
	}
}

func normalizedURL(t *testing.T, raw string) string {
	t.Helper()
	name, err := normalizeWorkerURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// TestProberStateMachine: consecutive probe failures kill a worker, a
// success revives it, a draining snapshot degrades it — and /healthz tracks
// whether anything routable remains.
func TestProberStateMachine(t *testing.T) {
	var mode atomic.Int32 // 0 = ok, 1 = dead, 2 = draining
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 1:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
		case 2:
			server.WriteJSON(w, http.StatusOK, server.LoadResponse{
				Status: "draining", Draining: true, Capacity: 8,
			})
		default:
			server.WriteJSON(w, http.StatusOK, server.LoadResponse{
				Status: "ok", Capacity: 8,
			})
		}
	}))
	defer stub.Close()
	rt, ts := newTestRouter(t, []string{stub.URL}, nil)
	wk := rt.pool.get(normalizedURL(t, stub.URL))

	rt.ProbeAll(context.Background())
	if st := wk.getState(); st != stateHealthy {
		t.Fatalf("after a good probe: state %v, want healthy", st)
	}

	mode.Store(1)
	for i := 0; i < rt.cfg.DeadAfter; i++ {
		rt.ProbeAll(context.Background())
	}
	if st := wk.getState(); st != stateDead {
		t.Fatalf("after %d failed probes: state %v, want dead", rt.cfg.DeadAfter, st)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with an all-dead pool: HTTP %d, want 503", resp.StatusCode)
	}

	mode.Store(0)
	rt.ProbeAll(context.Background())
	if st := wk.getState(); st != stateHealthy {
		t.Fatalf("after revival probe: state %v, want healthy", st)
	}

	mode.Store(2)
	rt.ProbeAll(context.Background())
	if st := wk.getState(); st != stateDegraded {
		t.Fatalf("after draining probe: state %v, want degraded", st)
	}
	if rt.probes.Load() < int64(rt.cfg.DeadAfter+3) || rt.probeFails.Load() != int64(rt.cfg.DeadAfter) {
		t.Errorf("probe counters: %d probes, %d failures", rt.probes.Load(), rt.probeFails.Load())
	}
}

// TestRegistration: a register-enabled router starts empty, refuses work
// with no_workers, accepts a worker announcement idempotently, and then
// routes.
func TestRegistration(t *testing.T) {
	w1 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, nil, func(cfg *Config) { cfg.AllowRegister = true })

	client := server.NewClient(ts.URL)
	_, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeNoWorkers || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("empty pool: got %v, want 503 %s", err, CodeNoWorkers)
	}

	status, body := postJSON(t, ts.URL+"/v1/cluster/register", RegisterRequest{URL: w1.url()})
	if status != http.StatusOK {
		t.Fatalf("register: HTTP %d\n%s", status, body)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if !reg.Added || reg.Worker.State != "healthy" {
		t.Fatalf("first registration: %+v, want added + healthy (synchronous probe)", reg)
	}

	status, body = postJSON(t, ts.URL+"/v1/cluster/register", RegisterRequest{URL: w1.url()})
	if status != http.StatusOK {
		t.Fatalf("re-register: HTTP %d\n%s", status, body)
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Added {
		t.Fatal("re-registration reported added=true; registration must be idempotent")
	}

	if _, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"}); err != nil {
		t.Fatalf("simulate after registration: %v", err)
	}
	if rt.pool.get(normalizedURL(t, w1.url())) == nil {
		t.Fatal("registered worker missing from the pool")
	}

	status, _ = postJSON(t, ts.URL+"/v1/cluster/register", RegisterRequest{URL: "not a url"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad registration URL: HTTP %d, want 400", status)
	}
}

// TestValidationAtTheRouter: the router pre-validates with the worker rules,
// so errors come back immediately with caller-relative spec indices.
func TestValidationAtTheRouter(t *testing.T) {
	w1 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url()}, nil)

	status, body := postJSON(t, ts.URL+"/v1/simulate", exper.Spec{Bench: "no-such-bench"})
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown_workload")) {
		t.Fatalf("unknown bench: HTTP %d\n%s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/sweep", server.SweepRequest{Specs: []exper.Spec{
		{Bench: "compress"},
		{Bench: "compress", Width: 3},
	}})
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`"specs[1].width"`)) {
		t.Fatalf("sweep validation must carry the caller's index: HTTP %d\n%s", status, body)
	}
}

// TestProxyEndpoints: the pool-invariant read endpoints pass through
// byte-for-byte.
func TestProxyEndpoints(t *testing.T) {
	w1 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url()}, nil)
	for _, path := range []string{"/v1/workloads", "/v1/timing?width=8&regs=64,128"} {
		direct, err := http.Get(w1.url() + path)
		if err != nil {
			t.Fatal(err)
		}
		directBody, _ := io.ReadAll(direct.Body)
		direct.Body.Close()
		routed, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		routedBody, _ := io.ReadAll(routed.Body)
		routed.Body.Close()
		if routed.StatusCode != direct.StatusCode || !bytes.Equal(routedBody, directBody) {
			t.Fatalf("%s: routed (HTTP %d) differs from direct (HTTP %d)\n%.200s\n%.200s",
				path, routed.StatusCode, direct.StatusCode, routedBody, directBody)
		}
	}
}

// TestProxyRoutesPastStalledWorker: a worker that accepts a read and never
// answers costs a proxied GET one ProbeTimeout, not the client's patience:
// the router gives up on it, counts the timeout against it, and answers from
// the next worker in the path's preference order.
func TestProxyRoutesPastStalledWorker(t *testing.T) {
	release := make(chan struct{})
	stalls := make(map[string]*atomic.Bool)
	var urls []string
	for range 2 {
		stall := new(atomic.Bool)
		w := newTestWorker(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if !stall.Load() {
					h.ServeHTTP(rw, r)
					return
				}
				select {
				case <-r.Context().Done():
				case <-release:
				}
			})
		})
		stalls[w.url()] = stall
		urls = append(urls, w.url())
	}
	t.Cleanup(func() { close(release) }) // runs before the listeners close
	const probeTimeout = 200 * time.Millisecond
	rt, ts := newTestRouter(t, urls, func(cfg *Config) { cfg.ProbeTimeout = probeTimeout })
	order := rankByHRW(rt.pool.workers(), "/v1/workloads")
	stalls[order[0].name].Store(true)

	direct, err := http.Get(order[1].name + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(direct.Body)
	direct.Body.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := client.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatalf("proxied GET behind a stalled worker: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("routed past the stall: HTTP %d\n%.200s", resp.StatusCode, got)
	}
	if elapsed > 5*probeTimeout {
		t.Errorf("answer took %v, want about one ProbeTimeout (%v)", elapsed, probeTimeout)
	}
	if f := order[0].failures.Load(); f != 1 {
		t.Errorf("stalled worker charged %d failures, want 1", f)
	}
	if n := rt.reroutes.Load(); n != 1 {
		t.Errorf("reroutes = %d, want 1", n)
	}
}

// TestOwnDeadlineSparesWorker: a request that ends because its own deadline
// fired or its client went away says nothing about the worker it was waiting
// on. On each routed path — one-spec routing, sweep shards and the read-only
// proxy — DeadAfter such requests against a worker slower than the caller's
// patience must leave it healthy with no failure charged.
func TestOwnDeadlineSparesWorker(t *testing.T) {
	// setup builds a router over one worker that answers probes but is
	// slower than any caller below on every other path.
	setup := func(t *testing.T) (*Router, *httptest.Server, func()) {
		release := make(chan struct{})
		w := newTestWorker(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/load" {
					h.ServeHTTP(rw, r)
					return
				}
				select {
				case <-r.Context().Done():
				case <-release:
				}
			})
		})
		t.Cleanup(func() { close(release) }) // runs before the listener closes
		rt, ts := newTestRouter(t, []string{w.url()}, func(cfg *Config) { cfg.ProbeTimeout = time.Minute })
		rt.ProbeAll(context.Background())
		wk := rt.pool.workers()[0]
		spared := func() {
			t.Helper()
			if st := wk.status(); st.State != "healthy" || st.ConsecutiveFailures != 0 || st.Failures != 0 {
				t.Errorf("worker after %d requests that outlived their own deadline: %s, %d consecutive failures (%d in all); want healthy with none",
					rt.cfg.DeadAfter, st.State, st.ConsecutiveFailures, st.Failures)
			}
		}
		return rt, ts, spared
	}

	t.Run("simulate", func(t *testing.T) {
		rt, ts, spared := setup(t)
		for range rt.cfg.DeadAfter {
			status, body := postJSON(t, ts.URL+"/v1/simulate?timeout=50ms", exper.Spec{Bench: "compress"})
			if status != http.StatusGatewayTimeout {
				t.Fatalf("HTTP %d, want 504\n%s", status, body)
			}
		}
		spared()
	})
	t.Run("sweep", func(t *testing.T) {
		rt, ts, spared := setup(t)
		for range rt.cfg.DeadAfter {
			status, body := postJSON(t, ts.URL+"/v1/sweep?timeout=50ms", server.SweepRequest{Specs: specFamily(3)})
			if status != http.StatusGatewayTimeout {
				t.Fatalf("HTTP %d, want 504\n%s", status, body)
			}
		}
		spared()
	})
	t.Run("proxy", func(t *testing.T) {
		// The proxy has no ?timeout=: its caller's patience is the request
		// context, cut here as a client going away would cut it.
		rt, _, spared := setup(t)
		for range rt.cfg.DeadAfter {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			rec := httptest.NewRecorder()
			rt.handleProxy(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil).WithContext(ctx))
			cancel()
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("HTTP %d, want 504\n%s", rec.Code, rec.Body)
			}
		}
		spared()
	})
}

// TestWorkerRouterParity pins the serving contract both daemons share: a
// request refused before any simulation gets the same answer from a router
// as from the worker behind it — status, Allow, Retry-After, Content-Type
// and body, byte for byte. The requests are TestErrorPaths' (internal/server)
// plus the shell's own refusals.
func TestWorkerRouterParity(t *testing.T) {
	suite := exper.NewSuite(testBudget)
	srv, err := server.New(server.Config{Suite: suite, MaxSweepSpecs: 4, MaxBudget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(worker.Close)
	_, router := newTestRouter(t, []string{worker.URL}, func(cfg *Config) {
		cfg.MaxSweepSpecs = 4
		cfg.MaxBudget = 100_000
	})
	five := `{"specs":[{"bench":"ora"},{"bench":"ora"},{"bench":"ora"},{"bench":"ora"},{"bench":"ora"}]}`
	oversized := fmt.Sprintf(`{"bench":"ora","width":4 %s}`, strings.Repeat(" ", 64<<10))
	cases := []struct{ name, method, path, body string }{
		{"bad json", "POST", "/v1/simulate", `{"bench":`},
		{"empty body", "POST", "/v1/simulate", ``},
		{"trailing garbage", "POST", "/v1/simulate", `{"bench":"ora"} extra`},
		{"unknown field", "POST", "/v1/simulate", `{"bench":"ora","wdth":8}`},
		{"wrong type", "POST", "/v1/simulate", `{"bench":"ora","width":"four"}`},
		{"bad enum", "POST", "/v1/simulate", `{"bench":"ora","model":"sloppy"}`},
		{"missing bench", "POST", "/v1/simulate", `{"width":4}`},
		{"unknown workload", "POST", "/v1/simulate", `{"bench":"linpack"}`},
		{"width out of range", "POST", "/v1/simulate", `{"bench":"ora","width":16}`},
		{"queue out of range", "POST", "/v1/simulate", `{"bench":"ora","queue":100000}`},
		{"regs too small", "POST", "/v1/simulate", `{"bench":"ora","regs":8}`},
		{"regs too large", "POST", "/v1/simulate", `{"bench":"ora","regs":100000}`},
		{"budget over limit", "POST", "/v1/simulate", `{"bench":"ora","budget":200000}`},
		{"negative budget", "POST", "/v1/simulate", `{"bench":"ora","budget":-5}`},
		{"bad timeout", "POST", "/v1/simulate?timeout=fast", `{"bench":"ora"}`},
		{"empty sweep", "POST", "/v1/sweep", `{"specs":[]}`},
		{"oversized sweep", "POST", "/v1/sweep", five},
		{"bad spec in sweep", "POST", "/v1/sweep", `{"specs":[{"bench":"ora"},{"bench":"ora","width":5}]}`},
		{"timing bad width", "GET", "/v1/timing?width=6", ""},
		{"timing negative ports", "GET", "/v1/timing?read=-1&write=2", ""},
		{"timing lone read", "GET", "/v1/timing?read=4", ""},
		{"timing bad regs", "GET", "/v1/timing?regs=64,zero", ""},
		{"unknown route", "GET", "/v2/simulate", ""},
		{"method not allowed", "GET", "/v1/sweep", ""},
		{"unknown route and method", "DELETE", "/v1/nothing", ""},
		{"oversized body", "POST", "/v1/estimate", oversized},
		{"bad estimate timeout", "POST", "/v1/estimate?timeout=-1s", `{"bench":"ora"}`},
		{"bad sweep timeout", "POST", "/v1/sweep?timeout=soon", `{"specs":[{"bench":"ora"}]}`},
		{"metrics format", "GET", "/metrics?format=xml", ""},
	}
	type answer struct {
		status                       int
		allow, retryAfter, mediaType string
		body                         []byte
	}
	send := func(t *testing.T, base, method, path, body string) answer {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Retry-After"),
			resp.Header.Get("Content-Type"), raw}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct := send(t, worker.URL, tc.method, tc.path, tc.body)
			routed := send(t, router.URL, tc.method, tc.path, tc.body)
			if direct.status < 400 {
				t.Fatalf("worker accepted the request (HTTP %d); the case tests nothing", direct.status)
			}
			if routed.status != direct.status || routed.allow != direct.allow ||
				routed.retryAfter != direct.retryAfter || routed.mediaType != direct.mediaType ||
				!bytes.Equal(routed.body, direct.body) {
				t.Errorf("router answered differently from the worker\nworker: %d allow=%q retry=%q type=%q\n%s\nrouter: %d allow=%q retry=%q type=%q\n%s",
					direct.status, direct.allow, direct.retryAfter, direct.mediaType, direct.body,
					routed.status, routed.allow, routed.retryAfter, routed.mediaType, routed.body)
			}
		})
	}
}

// TestTraceAdoptionAtRouter: a caller-supplied X-Trace-Id becomes the
// router's trace (and therefore the one stamped on worker calls).
func TestTraceAdoptionAtRouter(t *testing.T) {
	w1 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url()}, nil)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/cluster", nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = "00000000feedface"
	req.Header.Set("X-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != id {
		t.Fatalf("router minted %q instead of adopting %q", got, id)
	}
}

// TestRouterMetricsAndCluster: the observability surface reports the pool
// and the routing counters in both JSON and Prometheus form.
func TestRouterMetricsAndCluster(t *testing.T) {
	w1 := newTestWorker(t, nil)
	w2 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)
	rt.ProbeAll(context.Background())
	client := server.NewClient(ts.URL)
	if _, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cluster ClusterResponse
	if err := json.Unmarshal(body, &cluster); err != nil {
		t.Fatalf("cluster response: %v\n%s", err, body)
	}
	if cluster.Policy != string(PolicyAffinity) || len(cluster.Workers) != 2 {
		t.Fatalf("cluster snapshot: %+v", cluster)
	}
	for _, ws := range cluster.Workers {
		if ws.State != "healthy" {
			t.Errorf("worker %s state %s after probing live pool", ws.Name, ws.State)
		}
	}
	if cluster.Probes < 2 {
		t.Errorf("probe counter %d after ProbeAll over 2 workers", cluster.Probes)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"regsim_router_http_requests_total",
		"regsim_router_workers{state=\"healthy\"} 2",
		"regsim_router_worker_up",
		"regsim_router_spillovers_total",
		"regsim_router_probes_total",
	} {
		if !bytes.Contains(prom, []byte(family)) {
			t.Errorf("prometheus exposition missing %q", family)
		}
	}
}

// TestRouterDrain: a draining router refuses simulation work with the same
// contract as a draining worker, while /v1/cluster stays readable.
func TestRouterDrain(t *testing.T) {
	w1 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{w1.url()}, nil)
	rt.Drain()

	client := server.NewClient(ts.URL)
	_, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeDraining || apiErr.RetryAfterSeconds <= 0 {
		t.Fatalf("draining router: got %v, want 503 %s with a hint", err, server.CodeDraining)
	}
	if want := "router is draining; retry against another instance"; apiErr.Message != want {
		t.Errorf("drain refusal message %q, want %q", apiErr.Message, want)
	}
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster during drain: HTTP %d", resp.StatusCode)
	}
}

// TestRouterPanicRecovery: a handler panic on the router is a structured
// 500 naming the router's log, and the router keeps serving.
func TestRouterPanicRecovery(t *testing.T) {
	w1 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{w1.url()}, nil)
	rt.Route("GET /boom", func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("panic recovered; see router log")) {
		t.Fatalf("panic: HTTP %d\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router unhealthy after panic: HTTP %d", resp.StatusCode)
	}
}

// TestRouterDeadlineMapping: an unreachable pool member and a fired deadline
// both come back with the worker-side error vocabulary.
func TestRouterDeadlineMapping(t *testing.T) {
	// A TCP black hole: a listener that accepts and never answers would be
	// ideal; an unroutable address errors fast, which is what the transport
	// failure path needs.
	_, ts := newTestRouter(t, []string{"http://127.0.0.1:1"}, nil)
	client := server.NewClient(ts.URL)
	_, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || apiErr.Code != CodeUpstream {
		t.Fatalf("all-unreachable pool: got %v, want 502 %s", err, CodeUpstream)
	}

	// A sub-millisecond deadline against a real worker fires inside the
	// worker (or in the router's client); either way the caller sees the
	// deadline vocabulary, not a transport error.
	w1 := newTestWorker(t, nil)
	_, ts2 := newTestRouter(t, []string{w1.url()}, nil)
	status, body := postJSON(t, ts2.URL+"/v1/simulate?timeout=1ns", exper.Spec{Bench: "compress"})
	if status != http.StatusGatewayTimeout && status != 499 {
		t.Fatalf("1ns deadline: HTTP %d\n%s", status, body)
	}
}

// TestConfigValidation: bad configurations fail construction, not first
// request.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no workers and no registration must be rejected")
	}
	if _, err := New(Config{Workers: []string{"ftp://x"}}); err == nil {
		t.Error("non-http worker URL must be rejected")
	}
	if _, err := New(Config{Workers: []string{"http://x:1"}, Policy: "random"}); err == nil {
		t.Error("unknown policy must be rejected")
	}
	if _, err := New(Config{
		Workers:        []string{"http://x:1"},
		DefaultTimeout: time.Minute, MaxTimeout: time.Second,
		ProbeInterval: -1,
	}); err == nil {
		t.Error("DefaultTimeout above MaxTimeout must be rejected")
	}
	rt, err := New(Config{Workers: []string{"http://x:1", "http://x:1/"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if n := len(rt.pool.workers()); n != 1 {
		t.Errorf("duplicate worker URLs (modulo trailing slash) created %d pool entries, want 1", n)
	}
	// A NaN threshold compares false both ways, so only a range check
	// written positively replaces it; kept, it would turn spillover off.
	nan, err := New(Config{Workers: []string{"http://x:1"}, ProbeInterval: -1, SpillThreshold: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	defer nan.Close()
	if got := nan.cfg.SpillThreshold; got != 0.9 {
		t.Errorf("NaN SpillThreshold became %v, want the 0.9 default", got)
	}
}
