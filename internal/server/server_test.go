package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regsim/internal/exper"
	"regsim/internal/telemetry"
)

// testBudget keeps handler-level simulations fast; coalescing and IPC
// trends are budget-independent.
const testBudget = 3_000

// newTestServer builds a server over a fresh small-budget suite, serves it
// from an httptest listener, and returns the pieces a test needs.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *Client) {
	t.Helper()
	suite := exper.NewSuite(testBudget)
	suite.Jobs = 2
	cfg := Config{Suite: suite}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

// TestSweepCoalescing is the acceptance criterion: concurrent identical
// sweep requests must trigger each simulation at most once — the engine's
// singleflight spans requests because every handler shares one suite.
func TestSweepCoalescing(t *testing.T) {
	srv, client := newTestServer(t, nil)
	specs := []exper.Spec{
		{Bench: "compress"},
		{Bench: "ora"},
		{Bench: "compress", Width: 8},
		{Bench: "compress"}, // duplicate within the batch, too
	}
	const uniqueSpecs = 3
	const clients = 4

	var wg sync.WaitGroup
	responses := make([]*SweepResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = client.Sweep(context.Background(), specs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if responses[i].Count != len(specs) {
			t.Fatalf("client %d: got %d results, want %d", i, responses[i].Count, len(specs))
		}
	}
	// Every client saw identical, correctly-ordered results.
	for i := 1; i < clients; i++ {
		for j := range responses[0].Results {
			a, b := responses[0].Results[j], responses[i].Results[j]
			if a.Spec != b.Spec || a.Result.Checksum != b.Result.Checksum || a.Result.Cycles != b.Result.Cycles {
				t.Errorf("client %d result %d diverges: %+v vs %+v", i, j, b.Spec, a.Spec)
			}
		}
	}
	// Duplicate specs (within a batch and across all four concurrent
	// batches) simulated at most — and exactly — once.
	if stats := srv.Suite().SweepStats(); stats.Runs != uniqueSpecs {
		t.Errorf("suite executed %d simulations for %d unique specs across %d concurrent sweeps (stats %+v)",
			stats.Runs, uniqueSpecs, clients, stats)
	}
}

// TestGracefulDrain is the other acceptance criterion: after Drain, an
// in-flight request runs to completion while new simulation requests are
// refused with a structured 503.
func TestGracefulDrain(t *testing.T) {
	running := make(chan struct{}, 1)
	var srv *Server
	srv, client := newTestServer(t, func(cfg *Config) {
		cfg.Suite.HeartbeatEvery = 1024
		cfg.Suite.Heartbeat = func(telemetry.Progress) {
			select {
			case running <- struct{}{}:
			default:
			}
		}
	})

	type simResult struct {
		resp *SimulateResponse
		err  error
	}
	inFlight := make(chan simResult, 1)
	go func() {
		// A budget big enough that the run is still going when Drain
		// lands (the heartbeat below proves it started).
		resp, err := client.Simulate(context.Background(), exper.Spec{Bench: "tomcatv", Budget: 500_000})
		inFlight <- simResult{resp, err}
	}()

	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight simulation never heartbeat")
	}
	srv.Drain()

	// New simulation work is refused immediately, with the retry hint.
	_, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("simulate during drain returned %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
		t.Errorf("drain refusal: got status %d code %q, want 503 %q", apiErr.Status, apiErr.Code, CodeDraining)
	}
	if want := "server is draining; retry against another instance"; apiErr.Message != want {
		t.Errorf("drain refusal message %q, want %q", apiErr.Message, want)
	}
	if apiErr.RetryAfterSeconds <= 0 {
		t.Errorf("drain refusal carries no Retry-After hint: %+v", apiErr)
	}
	if _, err := client.Sweep(context.Background(), []exper.Spec{{Bench: "compress"}}); !errors.As(err, &apiErr) || apiErr.Code != CodeDraining {
		t.Errorf("sweep during drain: got %v, want draining APIError", err)
	}

	// Health flips to draining so load balancers stop routing here...
	if err := client.Health(context.Background()); err == nil {
		t.Error("healthz still reports ok during drain")
	}
	// ...but observability keeps answering.
	if _, err := client.Metrics(context.Background()); err != nil {
		t.Errorf("metrics unavailable during drain: %v", err)
	}

	// And the in-flight request finishes normally.
	select {
	case res := <-inFlight:
		if res.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", res.err)
		}
		if res.resp.Result == nil || !resCommitted(res.resp) {
			t.Errorf("in-flight request returned an empty result: %+v", res.resp)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
}

func resCommitted(r *SimulateResponse) bool { return r.Result.Committed > 0 }

// TestRequestDeadline: a ?timeout= shorter than the simulation propagates
// through the engine into the machine loop and comes back as a structured
// 504 — the cancellation path, not a hung handler.
func TestRequestDeadline(t *testing.T) {
	_, client := newTestServer(t, nil)
	client.Timeout = 100 * time.Millisecond

	start := time.Now()
	_, err := client.Simulate(context.Background(), exper.Spec{Bench: "tomcatv", Budget: 9_000_000})
	elapsed := time.Since(start)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != CodeDeadlineExceeded {
		t.Errorf("got status %d code %q, want 504 %q", apiErr.Status, apiErr.Code, CodeDeadlineExceeded)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline enforcement took %v; the interrupt hook should fire within milliseconds of the deadline", elapsed)
	}

	// The failed execution must not poison the engine: the same spec with
	// a workable deadline simulates fine.
	client.Timeout = 0
	if _, err := client.Simulate(context.Background(), exper.Spec{Bench: "tomcatv", Budget: 1_000}); err != nil {
		t.Errorf("simulate after a deadline failure: %v", err)
	}
}

// TestAdmissionQueueFull: with every slot held and the wait queue full, the
// next request is refused fast with 429 + Retry-After.
func TestAdmissionQueueFull(t *testing.T) {
	srv, client := newTestServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 1
		cfg.MaxQueue = 1
	})

	// Hold the only slot directly (deterministic, no timing games).
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one queue seat with a real request on a background
	// goroutine; wait until it is provably queued.
	queued := make(chan error, 1)
	go func() {
		_, err := client.Simulate(context.Background(), exper.Spec{Bench: "compress"})
		queued <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.adm.stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never showed up in admission stats")
		}
		time.Sleep(time.Millisecond)
	}

	// Slot busy + queue full: the next request bounces.
	_, err = client.Simulate(context.Background(), exper.Spec{Bench: "ora"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != CodeOverloaded {
		t.Errorf("got status %d code %q, want 429 %q", apiErr.Status, apiErr.Code, CodeOverloaded)
	}
	if apiErr.RetryAfterSeconds <= 0 {
		t.Error("429 carries no Retry-After hint")
	}
	if !apiErr.IsRetryable() {
		t.Error("429 should be retryable")
	}

	// Releasing the slot lets the queued request through.
	release()
	if err := <-queued; err != nil {
		t.Errorf("queued request failed after the slot freed: %v", err)
	}
	if rejected := srv.adm.stats().Rejected; rejected != 1 {
		t.Errorf("admission counted %d rejections, want 1", rejected)
	}
}

// TestMetricsEndpointCounters: /metrics reflects traffic — request counts
// per endpoint, latency histograms, and the suite's sweep/cache counters.
func TestMetricsEndpointCounters(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()
	if _, err := client.Simulate(ctx, exper.Spec{Bench: "compress"}); err != nil {
		t.Fatal(err)
	}
	// Second identical request is answered from the memo.
	if _, err := client.Simulate(ctx, exper.Spec{Bench: "compress"}); err != nil {
		t.Fatal(err)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sim := m.Endpoints["POST /v1/simulate"]
	if sim.Requests != 2 {
		t.Errorf("simulate endpoint counted %d requests, want 2", sim.Requests)
	}
	if sim.ByStatus["200"] != 2 {
		t.Errorf("simulate endpoint byStatus[200] = %d, want 2 (%v)", sim.ByStatus["200"], sim.ByStatus)
	}
	if sim.LatencyMS.Count != 2 {
		t.Errorf("simulate latency histogram holds %d observations, want 2", sim.LatencyMS.Count)
	}
	if m.Sweep.Runs != 1 || m.Sweep.MemoHits != 1 {
		t.Errorf("sweep stats: runs=%d memoHits=%d, want 1 run + 1 memo hit", m.Sweep.Runs, m.Sweep.MemoHits)
	}
	if m.UptimeSeconds < 0 {
		t.Errorf("negative uptime %f", m.UptimeSeconds)
	}
}

// TestPanicRecovery: a handler panic becomes a structured 500, not a
// connection reset, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	srv, client := newTestServer(t, func(cfg *Config) {
		cfg.ErrorLog = log.New(io.Discard, "", 0) // the stack dump is expected; keep test output clean
	})
	srv.Route("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	resp, err := http.Get(clientBase(client) + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic returned status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "panic recovered; see server log") {
		t.Errorf("panic body does not name the server: %s", body)
	}
	// Still alive.
	if err := client.Health(context.Background()); err != nil {
		t.Errorf("server dead after panic: %v", err)
	}
}

func clientBase(c *Client) string { return "http://" + c.pool.host + c.prefix }
