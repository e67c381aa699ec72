package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
)

// newObsServer is newTestServer with the raw base URL exposed, for tests that
// need to speak plain HTTP (Prometheus scrapes, ?timeout= overrides).
func newObsServer(t *testing.T, mutate func(*Config)) (*Server, string) {
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
	return srv, ts.URL
}

func postSimulate(t *testing.T, base, query, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// TestTracePropagation is the tentpole's end-to-end criterion, table-driven
// across outcomes: every request gets a trace ID on the X-Trace-Id header,
// the completed span tree lands in the ring with the serving phases as
// children, and — crucially — a deadline-aborted request still emits a
// complete tree (no span left in progress).
func TestTracePropagation(t *testing.T) {
	cases := []struct {
		name       string
		query      string
		body       string
		wantStatus int
		wantSpans  []string // names that must appear in the tree
		skipSpans  []string // names that must NOT appear
	}{
		{
			name:       "success",
			body:       `{"bench":"compress"}`,
			wantStatus: http.StatusOK,
			wantSpans:  []string{"admission", "simulate", "workload.build", "core.run"},
			skipSpans:  []string{"rescache.lookup", "coalesce"}, // no cache attached, no contention
		},
		{
			name:       "validation failure never reaches admission",
			body:       `{"bench":"no-such-bench"}`,
			wantStatus: http.StatusBadRequest,
			skipSpans:  []string{"admission", "simulate"},
		},
		{
			name:       "deadline abort emits a complete tree",
			query:      "?timeout=100ms",
			body:       `{"bench":"tomcatv","budget":9000000}`,
			wantStatus: http.StatusGatewayTimeout,
			wantSpans:  []string{"admission", "simulate", "core.run"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, base := newObsServer(t, nil)
			resp, body := postSimulate(t, base, tc.query, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			traceID := resp.Header.Get("X-Trace-Id")
			if _, err := obs.ParseTraceID(traceID); err != nil {
				t.Fatalf("X-Trace-Id %q: %v", traceID, err)
			}
			tree, ok := srv.Traces().Get(traceID)
			if !ok {
				t.Fatalf("trace %s not in the ring", traceID)
			}
			if tree.Name != "POST /v1/simulate" {
				t.Errorf("root span = %q, want the route pattern", tree.Name)
			}
			if got := tree.Attr("status"); got != tc.wantStatus {
				t.Errorf("root status attr = %v, want %d", got, tc.wantStatus)
			}
			for _, name := range tc.wantSpans {
				if tree.Find(name) == nil {
					t.Errorf("tree is missing span %q", name)
				}
			}
			for _, name := range tc.skipSpans {
				if tree.Find(name) != nil {
					t.Errorf("tree unexpectedly contains span %q", name)
				}
			}
			// The tree is complete: the request is over, so nothing may
			// still be in progress — including the spans of a simulation
			// that was killed mid-run by the deadline.
			tree.Walk(func(d *obs.SpanData) {
				if d.InProgress {
					t.Errorf("span %q still in progress after the response", d.Name)
				}
			})
			if t.Failed() {
				raw, _ := json.Marshal(tree)
				t.Logf("tree: %s", raw)
			}
		})
	}
}

// TestCoalescedWaiterLinksLeader: when two traced requests collapse onto one
// execution, the waiter's tree records a "coalesce" span carrying a link to
// the leader's trace — the cross-trace edge that makes a 504'd leader's
// victims diagnosable. Run under -race this also exercises concurrent span
// trees over one engine.
// TestTraceAdoption: a request carrying a well-formed X-Trace-Id must join
// that trace (the cross-process half of router→worker correlation), while a
// malformed header falls back to a fresh ID rather than an error.
func TestTraceAdoption(t *testing.T) {
	_, client := newTestServer(t, nil)
	cases := []struct {
		name, header string
		wantAdopted  bool
	}{
		{"adopted", "00000000deadbeef", true},
		{"malformed", "not-a-trace-id", false},
		{"short", "beef", false},
		{"absent", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, clientBase(client)+"/healthz", nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("X-Trace-Id", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			got := resp.Header.Get("X-Trace-Id")
			if tc.wantAdopted && got != tc.header {
				t.Fatalf("X-Trace-Id = %q, want adopted %q", got, tc.header)
			}
			if !tc.wantAdopted && (got == tc.header || len(got) != 16) {
				t.Fatalf("X-Trace-Id = %q, want a fresh 16-hex ID", got)
			}
		})
	}
}

func TestCoalescedWaiterLinksLeader(t *testing.T) {
	// The leader's first heartbeat parks the simulation until release is
	// closed, so the waiter deterministically finds it in flight.
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, base := newObsServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 4 // both requests must clear admission concurrently
		cfg.Suite.HeartbeatEvery = 1024
		cfg.Suite.Heartbeat = func(telemetry.Progress) {
			once.Do(func() {
				close(running)
				<-release
			})
		}
	})

	const body = `{"bench":"tomcatv","budget":400000}`
	type result struct {
		trace  string
		status int
	}
	results := make(chan result, 2)
	request := func() {
		resp, _ := postSimulate(t, base, "", body)
		results <- result{resp.Header.Get("X-Trace-Id"), resp.StatusCode}
	}

	go request()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("leader simulation never heartbeat")
	}
	go request() // identical spec: must coalesce onto the parked run
	for deadline := time.Now().Add(30 * time.Second); srv.cfg.Suite.SweepStats().Deduped < 1; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("second request never coalesced onto the in-flight run")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	first, second := <-results, <-results
	for _, r := range []result{first, second} {
		if r.status != http.StatusOK {
			t.Fatalf("request status = %d", r.status)
		}
	}

	// Exactly one of the two traces carries the coalesce span; its link
	// names the other request's trace.
	var waiterTree, leaderTree *obs.SpanData
	for _, id := range []string{first.trace, second.trace} {
		tree, ok := srv.Traces().Get(id)
		if !ok {
			t.Fatalf("trace %s not stored", id)
		}
		if tree.Find("coalesce") != nil {
			cp := tree
			waiterTree = &cp
		} else {
			cp := tree
			leaderTree = &cp
		}
	}
	if waiterTree == nil || leaderTree == nil {
		t.Fatalf("want one coalesced and one leading trace (got waiter=%v leader=%v)", waiterTree != nil, leaderTree != nil)
	}
	links := waiterTree.Find("coalesce").Links
	if len(links) != 1 {
		t.Fatalf("coalesce span has %d links, want 1", len(links))
	}
	if links[0].TraceHex != leaderTree.TraceID {
		t.Errorf("coalesce link points at %s, want the leader's trace %s", links[0].TraceHex, leaderTree.TraceID)
	}
	// The leader (and only the leader) ran the machine.
	if leaderTree.Find("core.run") == nil {
		t.Error("leader tree has no core.run span")
	}
	if waiterTree.Find("core.run") != nil {
		t.Error("waiter tree has a core.run span despite coalescing")
	}
	if st := srv.cfg.Suite.SweepStats(); st.Deduped < 1 {
		t.Errorf("engine deduped = %d, want >= 1", st.Deduped)
	}
}

// TestPrometheusExposition covers the scrape path end to end and pins the
// middleware fix: the JSON /metrics document stays summary-only, while the
// Prometheus exposition carries the full latency histogram buckets that the
// old snapshot() unconditionally discarded.
func TestPrometheusExposition(t *testing.T) {
	srv, base := newObsServer(t, nil)
	if resp, body := postSimulate(t, base, "", `{"bench":"compress"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	for _, want := range []string{
		"# TYPE regsim_http_requests_total counter",
		`regsim_http_requests_total{endpoint="POST /v1/simulate",code="200"} 1`,
		"# TYPE regsim_http_request_duration_ms histogram",
		`regsim_http_request_duration_ms_bucket{endpoint="POST /v1/simulate",le="+Inf"} 1`,
		`regsim_http_request_duration_ms_count{endpoint="POST /v1/simulate"} 1`,
		"# TYPE regsim_sweep_runs_total counter",
		"regsim_sweep_runs_total 1",
		"# TYPE regsim_sweep_shared_total counter",
		"regsim_sweep_shared_total 0",
		"# TYPE regsim_sweep_evicted_total counter",
		"regsim_sweep_evicted_total 0",
		"# TYPE regsim_admission_in_flight gauge",
		"regsim_admission_admitted_total 1",
		"# TYPE regsim_admission_wait_ms histogram",
		"regsim_admission_wait_ms_count 1",
		"# TYPE go_goroutines gauge",
		"regsim_traces_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}

	// The JSON document still serves the summary without buckets…
	var m MetricsResponse
	jresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(jresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	ep := m.Endpoints["POST /v1/simulate"]
	if ep.LatencyMS.Count != 1 {
		t.Fatalf("JSON latency count = %d", ep.LatencyMS.Count)
	}
	if len(ep.LatencyMS.Buckets) != 0 {
		t.Errorf("JSON /metrics leaked %d histogram buckets", len(ep.LatencyMS.Buckets))
	}
	// …but the underlying histogram kept them for the Prometheus path.
	if got := srv.metrics["POST /v1/simulate"].snapshot(true); len(got.LatencyMS.Buckets) == 0 {
		t.Error("snapshot(true) has no buckets: the latency histogram was lost")
	}

	// Unknown formats are a structured 400, not a silent JSON fallback.
	bresp, err := http.Get(base + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", bresp.StatusCode)
	}
}

// TestStructuredAccessLog: with a Logger configured, every request emits one
// JSON record carrying the trace ID and phase timings, and requests over the
// SlowRequest threshold escalate to a warn record with the span tree inline.
func TestStructuredAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := &lockedWriter{w: &buf, mu: &mu}
	_, base := newObsServer(t, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewJSONHandler(w, nil))
		cfg.SlowRequest = time.Nanosecond // everything is slow
	})
	resp, _ := postSimulate(t, base, "", `{"bench":"compress"}`)
	traceID := resp.Header.Get("X-Trace-Id")

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var rec map[string]any
	found := false
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if m["trace"] == traceID {
			rec, found = m, true
		}
	}
	if !found {
		t.Fatalf("no log record for trace %s in %q", traceID, buf.String())
	}
	if rec["msg"] != "slow request" || rec["level"] != "WARN" {
		t.Errorf("slow request logged as %v/%v, want WARN/slow request", rec["level"], rec["msg"])
	}
	if rec["status"] != float64(http.StatusOK) || rec["path"] != "/v1/simulate" {
		t.Errorf("record fields: %v", rec)
	}
	if _, ok := rec["phaseMS_simulate"]; !ok {
		t.Errorf("record has no simulate phase timing: %v", rec)
	}
	spans, ok := rec["spans"].(map[string]any)
	if !ok {
		t.Fatalf("spans not inlined as structured JSON: %T", rec["spans"])
	}
	if spans["name"] != "POST /v1/simulate" {
		t.Errorf("inlined tree root = %v", spans["name"])
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestDebugSurface: the operator handler serves the one-page snapshot, the
// per-trace Perfetto export, and pprof.
func TestDebugSurface(t *testing.T) {
	srv, base := newObsServer(t, nil)
	resp, _ := postSimulate(t, base, "", `{"bench":"compress"}`)
	traceID := resp.Header.Get("X-Trace-Id")

	ds := httptest.NewServer(srv.DebugHandler())
	defer ds.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		r, err := http.Get(ds.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, raw
	}

	status, raw := get("/debug/obs")
	if status != http.StatusOK {
		t.Fatalf("/debug/obs status %d", status)
	}
	var snap struct {
		Goroutines  int                  `json:"goroutines"`
		Sweep       telemetry.SweepStats `json:"sweep"`
		TracesTotal int64                `json:"tracesTotal"`
		Traces      []obs.SpanData       `json:"traces"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("/debug/obs body: %v", err)
	}
	if snap.Goroutines <= 0 || snap.TracesTotal < 1 || len(snap.Traces) < 1 {
		t.Errorf("implausible snapshot: %+v", snap)
	}
	if snap.Sweep.Runs != 1 {
		t.Errorf("snapshot sweep runs = %d, want 1", snap.Sweep.Runs)
	}

	status, raw = get("/debug/obs/trace?id=" + traceID)
	if status != http.StatusOK {
		t.Fatalf("trace export status %d: %s", status, raw)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace export is not a chrome trace: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		names[fmt.Sprint(ev["name"])] = true
	}
	for _, want := range []string{"POST /v1/simulate", "simulate", "core.run"} {
		if !names[want] {
			t.Errorf("trace export missing slice %q (have %v)", want, names)
		}
	}

	if status, _ := get("/debug/obs/trace?id=ffffffffffffffff"); status != http.StatusNotFound {
		t.Errorf("unknown trace id status %d, want 404", status)
	}
	if status, _ := get("/debug/obs/trace"); status != http.StatusBadRequest {
		t.Errorf("missing id status %d, want 400", status)
	}
	if status, raw := get("/debug/pprof/cmdline"); status != http.StatusOK || len(raw) == 0 {
		t.Errorf("pprof cmdline status %d len %d", status, len(raw))
	}
}

// TestRescacheMetricsExported: with a persistent cache attached, the scrape
// reflects its hit/miss counters (the cross-process counters the CI smoke
// asserts on after a daemon restart).
func TestRescacheMetricsExported(t *testing.T) {
	dir := t.TempDir()
	newCached := func() (*Server, string) {
		return newObsServer(t, func(cfg *Config) {
			store, err := rescache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Suite.Cache = store
		})
	}
	_, base := newCached()
	if resp, body := postSimulate(t, base, "", `{"bench":"compress"}`); resp.StatusCode != 200 {
		t.Fatalf("fill: %d %s", resp.StatusCode, body)
	}

	// A fresh server over the same cache directory: the hit counter moves.
	_, base2 := newCached()
	if resp, body := postSimulate(t, base2, "", `{"bench":"compress"}`); resp.StatusCode != 200 {
		t.Fatalf("hit: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(base2 + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "regsim_rescache_hits_total 1") {
		t.Errorf("scrape missing rescache hit:\n%s", grepLines(string(raw), "rescache"))
	}
	if !strings.Contains(string(raw), "regsim_sweep_runs_total 0") {
		t.Errorf("cached answer should not count as a run:\n%s", grepLines(string(raw), "sweep"))
	}
}

// TestSimulateSharesSiblings: served requests share pressure-free siblings
// like a CLI sweep does, although every request is traced. A trunk then its
// sibling on /v1/simulate give byte-identical Results from one simulation,
// and the sibling's trace carries a "sibling" span instead of core.run.
func TestSimulateSharesSiblings(t *testing.T) {
	srv, base := newObsServer(t, nil)
	result := func(body string) (json.RawMessage, string) {
		t.Helper()
		resp, raw := postSimulate(t, base, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", body, resp.StatusCode, raw)
		}
		var reply struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(raw), &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Result, resp.Header.Get("X-Trace-Id")
	}
	trunk, _ := result(`{"bench":"tomcatv","width":8,"regs":256}`)
	sibling, traceID := result(`{"bench":"tomcatv","width":8,"regs":160,"model":"imprecise"}`)
	if !bytes.Equal(trunk, sibling) {
		t.Errorf("sibling Result differs from its trunk's\n trunk:   %s\n sibling: %s", trunk, sibling)
	}
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"regsim_sweep_shared_total 1", "regsim_sweep_runs_total 1"} {
		if !strings.Contains(string(raw), "\n"+want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, grepLines(string(raw), "regsim_sweep"))
		}
	}
	tree, ok := srv.Traces().Get(traceID)
	if !ok {
		t.Fatalf("trace %s not in the ring", traceID)
	}
	if tree.Find("sibling") == nil || tree.Find("core.run") != nil {
		raw, _ := json.Marshal(tree)
		t.Errorf("sibling answer's trace should hold a sibling span and no core.run: %s", raw)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
