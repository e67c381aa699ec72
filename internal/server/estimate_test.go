package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"regsim/internal/exper"
	"regsim/internal/obs"
	"regsim/internal/rftiming"
)

func postEstimate(t *testing.T, base, query, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/estimate"+query, "application/json", strings.NewReader(body))
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

// TestEstimateSuccess: a partial spec is defaulted exactly like /v1/simulate,
// and the estimate is exact: its IPC and cycles are /v1/simulate's for the
// same spec, and its cycle time and BIPS are Figure 10's formula applied to
// that IPC.
func TestEstimateSuccess(t *testing.T) {
	_, client := newTestServer(t, nil)
	ctx := context.Background()
	resp, err := client.Estimate(ctx, exper.Spec{Bench: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	want := exper.Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 80, Budget: testBudget}
	if resp.Spec != want {
		t.Errorf("defaulted spec = %+v, want %+v", resp.Spec, want)
	}
	sim, err := client.Simulate(ctx, exper.Spec{Bench: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result
	cycleNS := rftiming.Default05um().CycleTime(want.Regs, rftiming.PortsFor(want.Width, false))
	got := resp.Estimate
	if got.IPC != res.CommitIPC() || got.Cycles != res.Cycles {
		t.Errorf("estimate ipc %v, cycles %d; simulate says %v, %d", got.IPC, got.Cycles, res.CommitIPC(), res.Cycles)
	}
	if got.CPI != float64(res.Cycles)/float64(res.Committed) {
		t.Errorf("estimate cpi %v, want %d cycles / %d commits", got.CPI, res.Cycles, res.Committed)
	}
	if got.IntCycleNS != cycleNS || got.BIPS != rftiming.BIPS(res.CommitIPC(), cycleNS) {
		t.Errorf("estimate cycle %v ns, %v BIPS; Figure 10 gives %v ns, %v BIPS",
			got.IntCycleNS, got.BIPS, cycleNS, rftiming.BIPS(res.CommitIPC(), cycleNS))
	}
}

// TestEstimateErrors: the estimate endpoint speaks the same structured error
// envelope as the simulation endpoints — unknown workloads, invalid fields,
// malformed JSON, wrong method, and unknown paths all answer in vocabulary a
// /v1/simulate client already handles.
func TestEstimateErrors(t *testing.T) {
	_, client := newTestServer(t, nil)
	cases := []struct {
		name      string
		spec      exper.Spec
		wantCode  string
		wantField string
	}{
		{"unknown bench", exper.Spec{Bench: "no-such-bench"}, CodeUnknownWorkload, "bench"},
		{"bad width", exper.Spec{Bench: "compress", Width: 6}, CodeInvalidArgument, "width"},
		{"bad queue", exper.Spec{Bench: "compress", Queue: -4}, CodeInvalidArgument, "queue"},
		{"bad regs", exper.Spec{Bench: "compress", Regs: 8}, CodeInvalidArgument, "regs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Estimate(context.Background(), tc.spec)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if apiErr.Status != http.StatusBadRequest || apiErr.Code != tc.wantCode || apiErr.Field != tc.wantField {
				t.Errorf("got %+v, want 400 %s on field %s", apiErr, tc.wantCode, tc.wantField)
			}
		})
	}
}

func TestEstimateWireErrors(t *testing.T) {
	_, base := newObsServer(t, nil)

	resp, body := postEstimate(t, base, "", `{"bench":`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, CodeInvalidJSON) {
		t.Errorf("malformed JSON: status %d body %s", resp.StatusCode, body)
	}

	getResp, err := http.Get(base + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate: status %d, want 405", getResp.StatusCode)
	}
	if allow := getResp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want POST", allow)
	}
}

// TestEstimateMetrics: an estimate of a spec the server has already
// simulated is answered from the result table — regsim_sweep_runs_total
// stays put — and it is counted where every request is, under its endpoint
// in regsim_http_requests_total.
func TestEstimateMetrics(t *testing.T) {
	srv, base := newObsServer(t, nil)
	if resp, body := postSimulate(t, base, "", `{"bench":"compress","regs":64}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d body %s", resp.StatusCode, body)
	}
	runs := srv.Suite().SweepStats().Runs
	if resp, body := postEstimate(t, base, "", `{"bench":"compress","regs":64}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d body %s", resp.StatusCode, body)
	}
	if after := srv.Suite().SweepStats().Runs; after != runs {
		t.Errorf("estimate of a simulated spec ran %d simulations", after-runs)
	}

	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(raw)
	if !strings.Contains(page, `regsim_http_requests_total{endpoint="POST /v1/estimate",code="200"} 1`) {
		t.Errorf("exposition does not count the estimate:\n%s", grepLines(page, "regsim_http_requests_total"))
	}
	if !strings.Contains(page, "regsim_sweep_runs_total 1\n") {
		t.Errorf("exposition does not show the one run:\n%s", grepLines(page, "regsim_sweep"))
	}
}

// TestEstimateTrace: an estimate's trace is a simulate's — it waits in
// admission and runs in a "simulate" span — and it lands in the /debug/obs
// ring under the route pattern.
func TestEstimateTrace(t *testing.T) {
	srv, base := newObsServer(t, nil)
	resp, body := postEstimate(t, base, "", `{"bench":"compress"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if _, err := obs.ParseTraceID(traceID); err != nil {
		t.Fatalf("X-Trace-Id %q: %v", traceID, err)
	}
	tree, ok := srv.Traces().Get(traceID)
	if !ok {
		t.Fatalf("trace %s not in the ring", traceID)
	}
	if tree.Name != "POST /v1/estimate" {
		t.Errorf("root span = %q, want the route pattern", tree.Name)
	}
	for _, name := range []string{"admission", "simulate"} {
		if tree.Find(name) == nil {
			raw, _ := json.Marshal(tree)
			t.Errorf("tree is missing span %s: %s", name, raw)
		}
	}
	tree.Walk(func(d *obs.SpanData) {
		if d.InProgress {
			t.Errorf("span %q still in progress after the response", d.Name)
		}
	})
}

// TestEstimateAdmission: estimates queue for the simulation slots. With the
// one slot held and the one queue seat taken, five of six concurrent cold
// estimates are refused with 429, and the sixth runs once the slot frees.
func TestEstimateAdmission(t *testing.T) {
	srv, client := newTestServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 1
		cfg.MaxQueue = 1
	})
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(regs int) {
			_, err := client.Estimate(context.Background(), exper.Spec{Bench: "compress", Regs: regs})
			errs <- err
		}(48 + 8*i)
	}
	// While the slot is held only refusals can come back.
	for i := 0; i < n-1; i++ {
		var apiErr *APIError
		if err := <-errs; !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			t.Errorf("estimate with the slot held: %v, want 429 %s", err, CodeOverloaded)
		}
	}
	release()
	if err := <-errs; err != nil {
		t.Errorf("queued estimate failed after the slot freed: %v", err)
	}
	if st := srv.adm.stats(); st.Rejected != n-1 || st.Admitted != 2 {
		t.Errorf("admission counted %d rejected, %d admitted; want %d, 2 (the held slot and the queued estimate)",
			st.Rejected, st.Admitted, n-1)
	}
}

// TestEstimateDrain: estimates are refused during drain like the other
// simulation endpoints.
func TestEstimateDrain(t *testing.T) {
	srv, client := newTestServer(t, nil)
	srv.Drain()
	_, err := client.Estimate(context.Background(), exper.Spec{Bench: "compress"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
		t.Fatalf("estimate during drain: %v, want structured 503 %s", err, CodeDraining)
	}
}
