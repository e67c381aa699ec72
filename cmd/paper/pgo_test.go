package main

import (
	"io"
	"runtime"
	"testing"

	"regsim/internal/exper"
)

// pgoBudget is the per-run budget of the profiled figure set: the budget of
// the cold sweeps regbench times, inside the stationary regime
// EXPERIMENTS.md calls for (≥30000 commits).
const pgoBudget = 50_000

// BenchmarkPaperAll renders the whole figure set, as `paper -n 50000
// -no-cache all` does, with every store bypassed. Its CPU profile is this
// command's profile-guided-optimization input, default.pgo, which `go
// build` applies to cmd/paper automatically. Regenerate it from the
// repository root after a change to the cycle loop:
//
//	go test -trimpath -run '^$' -bench '^BenchmarkPaperAll$' -benchtime 1x -cpuprofile cmd/paper/default.pgo ./cmd/paper
//
// -trimpath keeps the build machine's file paths out of the profile; the
// compiler matches samples by function name and line offset, not by file.
func BenchmarkPaperAll(b *testing.B) {
	for range b.N {
		s := exper.NewSuite(pgoBudget)
		s.Jobs = runtime.GOMAXPROCS(0)
		if err := run(io.Discard, s, "all", false, false); err != nil {
			b.Fatal(err)
		}
	}
}
