package cluster

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/server"
)

// TestEstimateRunsNothingOnceSimulated: estimates route like simulates, by
// sibling group, so once the router has simulated a spec, an estimate of it
// and of a pressure-free sibling of it land on the worker that holds the
// run: no worker simulates again, and both estimates report the run's IPC
// and cycles.
func TestEstimateRunsNothingOnceSimulated(t *testing.T) {
	w1 := newTestWorker(t, nil)
	w2 := newTestWorker(t, nil)
	_, ts := newTestRouter(t, []string{w1.url(), w2.url()}, nil)
	client := server.NewClient(ts.URL)
	ctx := context.Background()
	runs := func() int64 { return w1.srv.Suite().SweepStats().Runs + w2.srv.Suite().SweepStats().Runs }

	// tomcatv 8-way never feels a 256-register file, so its run also
	// answers the 160-register imprecise sibling.
	trunk := exper.Spec{Bench: "tomcatv", Width: 8, Regs: 256}
	sim, err := client.Simulate(ctx, trunk)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs(); got != 1 {
		t.Fatalf("one simulate ran %d simulations across the pool", got)
	}
	sibling := exper.Spec{Bench: "tomcatv", Width: 8, Regs: 160, Model: rename.Imprecise}
	for _, spec := range []exper.Spec{trunk, sibling} {
		resp, err := client.Estimate(ctx, spec)
		if err != nil {
			t.Fatalf("estimate %+v: %v", spec, err)
		}
		if est := resp.Estimate; est.IPC != sim.Result.CommitIPC() || est.Cycles != sim.Result.Cycles {
			t.Errorf("estimate %+v: ipc %v, cycles %d; the simulated run has %v, %d",
				spec, est.IPC, est.Cycles, sim.Result.CommitIPC(), sim.Result.Cycles)
		}
	}
	if got := runs(); got != 1 {
		t.Errorf("estimates of a simulated spec and its sibling ran %d more simulations", got-1)
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
