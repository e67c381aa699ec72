package verify_test

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/server"
	"regsim/internal/verify"
)

// FuzzDifferential feeds arbitrary bytes through the structured program
// decoder and checks the resulting machine against the reference interpreter
// with the runtime invariant checker on. The byte string picks both the
// program and the configuration, so coverage-guided fuzzing explores the
// (program, machine) product space. Every input must pass: ProgramFromBytes
// only emits terminating programs, and the oracle holds for all of them.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte("regsim"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{7, 7, 7, 11, 11, 11, 9, 8, 10, 10, 200, 100, 50, 25})

	widths := []int{4, 8}
	queues := []int{8, 16, 32, 64}
	regs := []int{32, 34, 48, 80}
	models := []rename.Model{rename.Precise, rename.Imprecise}
	kinds := []cache.Kind{cache.Lockup, cache.LockupFree, cache.Perfect}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := verify.ProgramFromBytes(data)
		// The configuration hangs off a hash so it varies with the input
		// but is independent of the byte positions the decoder consumes.
		h := fnv.New64a()
		h.Write(data)
		x := h.Sum64()
		cfg := core.DefaultConfig()
		cfg.Width = widths[x%2]
		cfg.QueueSize = queues[(x>>2)%4]
		cfg.RegsPerFile = regs[(x>>4)%4]
		cfg.Model = models[(x>>6)%2]
		cfg.DCache = cfg.DCache.WithKind(kinds[(x>>8)%3])
		cfg.CheckInvariants = true
		if err := verify.Differential(cfg, p); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzServerWire throws arbitrary bytes at the serving layer's JSON
// endpoints. The contract under test: handlers never panic (a recovered
// panic surfaces as a 500, which fails the target), every response body is
// valid JSON, every non-2xx body decodes into the structured error envelope
// with a machine-readable code, and successful simulate, sweep and estimate
// responses round-trip through the wire types.
func FuzzServerWire(f *testing.F) {
	// Tiny budgets keep fuzz-triggered simulations in the microsecond
	// range; validateSpec clamps what a request may ask for via MaxBudget.
	suite := exper.NewSuite(2_000)
	srv, err := server.New(server.Config{
		Suite:     suite,
		MaxBudget: 5_000,
		// Recovered panics are the failure this target hunts; keep the
		// stack spam out of the fuzzing engine's output.
		ErrorLog: log.New(io.Discard, "", 0),
	})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Add([]byte(`{"bench":"compress"}`))
	f.Add([]byte(`{"bench":"li","width":8,"queue":64,"regs":48,"model":"imprecise","cache":"lockup","budget":2000}`))
	f.Add([]byte(`{"specs":[{"bench":"compress"},{"bench":"compress","width":8}]}`))
	f.Add([]byte(`{"bench":5}`))
	f.Add([]byte(`{"bench":"nope"}`))
	f.Add([]byte(`{"bench":"li","budget":999999999}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"bench":"compress"} trailing`))
	f.Add([]byte(`{"unknown_field":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/v1/simulate", "/v1/sweep", "/v1/estimate"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)

			body := rec.Body.Bytes()
			if !json.Valid(body) {
				t.Fatalf("%s: HTTP %d body is not valid JSON: %q", path, rec.Code, body)
			}
			if rec.Code == http.StatusInternalServerError {
				// 500 means a handler panic (recovered by middleware) or a
				// simulator failure — neither may be reachable from the
				// wire.
				t.Fatalf("%s: HTTP 500 from request body %q: %s", path, data, body)
			}
			if rec.Code/100 != 2 {
				var eb struct {
					Error *server.APIError `json:"error"`
				}
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil || eb.Error.Code == "" {
					t.Fatalf("%s: HTTP %d body is not the error envelope: %q", path, rec.Code, body)
				}
				continue
			}
			// Success: the body must round-trip through the wire types.
			switch path {
			case "/v1/simulate":
				var resp server.SimulateResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("simulate 2xx body does not decode: %v", err)
				}
				if resp.Result == nil {
					t.Fatalf("simulate 2xx body has no result: %q", body)
				}
				if _, err := json.Marshal(resp); err != nil {
					t.Fatalf("simulate response does not re-encode: %v", err)
				}
			case "/v1/sweep":
				var resp server.SweepResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("sweep 2xx body does not decode: %v", err)
				}
				if resp.Count != len(resp.Results) {
					t.Fatalf("sweep count %d != %d results", resp.Count, len(resp.Results))
				}
			case "/v1/estimate":
				var resp server.EstimateResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("estimate 2xx body does not decode: %v", err)
				}
				if resp.Estimate.Cycles < 1 {
					t.Fatalf("estimate 2xx body has no cycles: %q", body)
				}
			}
		}
	})
}
