// Command serve demonstrates the simulation-as-a-service layer end to end:
// it hosts a serving instance in-process (the same layer cmd/regsimd wraps),
// then exercises it with the typed client through three phases —
//
//	cold:      a sweep matrix nobody has simulated before;
//	coalesced: four concurrent clients submitting that same matrix while
//	           it is still cold on a second server sharing the cache
//	           directory (each unique spec simulates exactly once);
//	warm:      the same matrix again, answered from the result table in
//	           microseconds.
//
//	go run ./examples/serve
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"regsim"
)

// matrix is a small Figure 3-style slice: one benchmark, two widths, a few
// register-file sizes — with one duplicate spec to show in-batch dedup.
func matrix() []regsim.SweepSpec {
	var specs []regsim.SweepSpec
	for _, width := range []int{4, 8} {
		for _, regs := range []int{64, 80, 128} {
			specs = append(specs, regsim.SweepSpec{Bench: "compress", Width: width, Regs: regs})
		}
	}
	return append(specs, specs[0]) // duplicate: sweeps dedup within a batch too
}

// serve stands up one serving instance over a fresh suite attached to the
// shared cache directory, mimicking one regsimd process.
func serve(dir string) (*httptest.Server, error) {
	cache, err := regsim.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	suite := regsim.NewSuite(50_000)
	suite.Cache = cache
	srv, err := regsim.NewServer(regsim.ServerConfig{Suite: suite})
	if err != nil {
		return nil, err
	}
	return httptest.NewServer(srv.Handler()), nil
}

func main() {
	dir, err := os.MkdirTemp("", "regsim-serve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	specs := matrix()

	// --- cold: first process, empty cache; every unique spec simulates.
	ts1, err := serve(dir)
	if err != nil {
		log.Fatal(err)
	}
	client := regsim.NewClient(ts1.URL)
	start := time.Now()
	resp, err := client.Sweep(ctx, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold:      %d specs in %v (server elapsed %.0fms)\n",
		resp.Count, time.Since(start).Round(time.Millisecond), resp.ElapsedMS)
	for _, r := range resp.Results[:3] {
		fmt.Printf("           %s w%d regs=%-4d commit IPC %.2f\n",
			r.Spec.Bench, r.Spec.Width, r.Spec.Regs, r.Result.CommitIPC())
	}

	// --- warm: same matrix, same server; pure result-table (memo) hits.
	start = time.Now()
	if _, err := client.Sweep(ctx, specs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm:      same matrix in %v\n", time.Since(start).Round(time.Microsecond))

	// --- coalesced: a second "process" shares only the disk cache, so its
	// table is cold — but four clients racing the same NEW matrix coalesce
	// through the engine's singleflight: each unique spec runs once.
	ts2, err := serve(dir)
	if err != nil {
		log.Fatal(err)
	}
	client2 := regsim.NewClient(ts2.URL)
	fresh := []regsim.SweepSpec{
		{Bench: "ora", Width: 4, Regs: 80},
		{Bench: "ora", Width: 4, Regs: 128},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client2.Sweep(ctx, fresh); err != nil {
				log.Print(err)
			}
		}()
	}
	wg.Wait()
	m, err := client2.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coalesced: 4 concurrent clients × %d fresh specs → %d simulations, %d coalesced/memo joins\n",
		len(fresh), m.Sweep.Runs, m.Sweep.Deduped+m.Sweep.MemoHits)

	// The second server answers the FIRST server's matrix from disk: cross-
	// process reuse without re-simulating.
	start = time.Now()
	if _, err := client2.Sweep(ctx, specs); err != nil {
		log.Fatal(err)
	}
	m2, _ := client2.Metrics(ctx)
	fmt.Printf("cross-proc: first server's matrix in %v (%d persistent-cache hits)\n",
		time.Since(start).Round(time.Millisecond), m2.Sweep.CacheHits)

	// Structured refusals: the client gets a typed error it can branch on.
	_, err = client2.Simulate(ctx, regsim.SweepSpec{Bench: "linpack"})
	if apiErr, ok := err.(*regsim.APIError); ok {
		fmt.Printf("refusal:   HTTP %d %s (field %q)\n", apiErr.Status, apiErr.Code, apiErr.Field)
	}

	ts1.Close()
	ts2.Close()
}
