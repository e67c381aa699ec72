package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"regsim/internal/exper"
	"regsim/internal/server"
)

// TestEstimateRoutesByCalibrationPair: every estimate for one (bench, width)
// pair must land on the pair's preferred worker, whatever the rest of the
// spec says — the twin's expensive state is per-pair calibration, so the
// cluster should calibrate each pair on exactly one node.
func TestEstimateRoutesByCalibrationPair(t *testing.T) {
	w1 := newTestWorker(t, nil)
	w2 := newTestWorker(t, nil)
	rt, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)

	spec := server.FinishSpec(exper.Spec{Bench: "compress"}, rt.cfg.DefaultBudget)
	preferred := rankByHRW(rt.pool.workers(), estimateKey(spec))[0].name
	byURL := map[string]*testWorker{w1.url(): w1, w2.url(): w2}
	warm, cold := byURL[preferred], w1
	if warm == w1 {
		cold = w2
	}

	client := server.NewClient(ts.URL)
	variants := []exper.Spec{
		{Bench: "compress"},
		{Bench: "compress", Regs: 48},
		{Bench: "compress", Regs: 160, Queue: 64},
		{Bench: "compress", Queue: 8},
	}
	for _, v := range variants {
		resp, err := client.Estimate(context.Background(), v)
		if err != nil {
			t.Fatalf("estimate %+v: %v", v, err)
		}
		if resp.Estimate.IPC <= 0 {
			t.Errorf("estimate %+v: unphysical IPC %v", v, resp.Estimate.IPC)
		}
	}
	if runs := warm.srv.Twin().CalibrationRuns(); runs == 0 {
		t.Errorf("preferred worker %s never calibrated", preferred)
	}
	if runs := cold.srv.Twin().CalibrationRuns(); runs != 0 {
		t.Errorf("non-preferred worker calibrated anyway (%d runs): estimates leaked off the affinity key", runs)
	}
}

// TestEstimateErrorPassthrough: a worker's terminal answer (validation) comes
// back through the router verbatim, with the worker-side envelope intact.
func TestEstimateErrorPassthrough(t *testing.T) {
	w1 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url()}, nil)
	client := server.NewClient(ts.URL)
	_, err := client.Estimate(context.Background(), exper.Spec{Bench: "no-such-bench"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != server.CodeUnknownWorkload {
		t.Fatalf("estimate via router: %v, want 400 %s", err, server.CodeUnknownWorkload)
	}
}

// newRoomyWorker is newTestWorker with admission capacity far above the
// agreement test's concurrency: the test asserts where requests execute, and
// a 429 reroute (legitimate overload behaviour) would smear that signal on
// small machines where the default MaxInFlight is tiny.
func newRoomyWorker(t *testing.T) *testWorker {
	t.Helper()
	suite := exper.NewSuite(testBudget)
	suite.Jobs = 2
	srv, err := server.New(server.Config{Suite: suite, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}
}

// workerStats snapshots the suite counters of each worker keyed by URL:
// specs executed (simulated or answered by a sibling) and duplicates the
// memo or singleflight absorbed.
func workerStats(ws map[string]*testWorker) map[string]struct{ runs, absorbed int64 } {
	out := make(map[string]struct{ runs, absorbed int64 }, len(ws))
	for url, w := range ws {
		st := w.srv.Suite().SweepStats()
		out[url] = struct{ runs, absorbed int64 }{executed(w), st.MemoHits + st.Deduped}
	}
	return out
}

// TestMultiRouterAgreement: two independent routers over one worker pool must
// agree on every fingerprint's home. Driving the same spec set through both
// routers concurrently, each spec simulates exactly once across the whole
// pool (the duplicate request lands on the same worker and is absorbed by its
// memo/singleflight, never re-executed elsewhere), and the per-worker
// distribution of absorbed duplicates is identical to what a single-router
// replay of the same set produces — the agreement that lets routers scale out
// statelessly.
func TestMultiRouterAgreement(t *testing.T) {
	workers := []*testWorker{newRoomyWorker(t), newRoomyWorker(t), newRoomyWorker(t)}
	urls := make([]string, len(workers))
	byURL := make(map[string]*testWorker, len(workers))
	for i, w := range workers {
		urls[i] = w.url()
		byURL[w.url()] = w
	}
	rtA, tsA := newTestRouter(t, urls, nil)
	_, tsB := newTestRouter(t, urls, nil)
	clientA := server.NewClient(tsA.URL)
	clientB := server.NewClient(tsB.URL)

	const n = 12
	family := specFamily(n)
	// wantOn[url] = how many of the family prefer that worker, per router A's
	// ranking. Router B must compute the identical assignment.
	wantOn := make(map[string]int64)
	for _, raw := range family {
		key := groupKey(server.FinishSpec(raw, rtA.cfg.DefaultBudget))
		wantOn[rankByHRW(rtA.pool.workers(), key)[0].name]++
	}

	// Phase 1: the same set through both routers, all requests concurrent.
	var wg sync.WaitGroup
	errs := make([]error, 2*n)
	for i, client := range []*server.Client{clientA, clientB} {
		for j, spec := range family {
			wg.Add(1)
			go func(slot int, c *server.Client, sp exper.Spec) {
				defer wg.Done()
				_, errs[slot] = c.Simulate(context.Background(), sp)
			}(i*n+j, client, spec)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after1 := workerStats(byURL)
	var totalRuns int64
	for url, st := range after1 {
		totalRuns += st.runs
		if st.runs != wantOn[url] {
			t.Errorf("worker %s executed %d specs, want %d: the two routers disagreed on a fingerprint's home", url, st.runs, wantOn[url])
		}
		if st.absorbed != wantOn[url] {
			t.Errorf("worker %s absorbed %d duplicates, want %d (one per spec from the second router)", url, st.absorbed, wantOn[url])
		}
	}
	if totalRuns != n {
		t.Errorf("pool executed %d simulations for %d unique specs: cross-worker duplication", totalRuns, n)
	}

	// Phase 2: single-router replay of the same set. No new executions
	// anywhere, and the per-worker memo-hit deltas reproduce exactly the
	// duplicate distribution phase 1 measured — router B's traffic was
	// indistinguishable from a replay.
	for _, spec := range family {
		if _, err := clientA.Simulate(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	for url, st := range workerStats(byURL) {
		if st.runs != after1[url].runs {
			t.Errorf("worker %s re-executed on replay (%d → %d runs)", url, after1[url].runs, st.runs)
		}
		gotDelta := st.absorbed - after1[url].absorbed
		if gotDelta != wantOn[url] {
			t.Errorf("worker %s replay absorbed %d, want %d", url, gotDelta, wantOn[url])
		}
	}
}
