package telemetry

import "fmt"

// SweepStats is the observability snapshot of one experiment sweep: the
// scheduler's, the in-memory result table's and the persistent result
// cache's counters. internal/exper fills it from the sweep engine, its
// result table and the rescache store; cmd/paper prints it after a verbose
// sweep.
type SweepStats struct {
	// Workers is the scheduler's worker-pool bound.
	Workers int `json:"workers"`
	// Active counts simulations executing at the moment of the snapshot
	// (Active/Workers is the pool's instantaneous utilization).
	Active int64 `json:"active"`
	// Runs counts simulations actually executed this process.
	Runs int64 `json:"runs"`
	// Shared counts requests answered from a finished sibling run (one
	// differing only in register-file size and exception model) instead
	// of being simulated.
	Shared int64 `json:"shared"`
	// MemoHits counts requests answered from the in-memory result table.
	MemoHits int64 `json:"memoHits"`
	// Deduped counts requests that piggybacked on an in-flight execution
	// of the same spec (singleflight coalescing).
	Deduped int64 `json:"deduped"`
	// Evicted counts result-table entries dropped to stay within its bound.
	Evicted int64 `json:"evicted"`
	// CacheHits/CacheMisses/CacheErrors are the persistent result-cache
	// counters; all zero when no cache is attached. Every error (corrupt
	// entry, unreadable file) is also counted as a miss and answered by
	// re-simulation.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	CacheErrors int64 `json:"cacheErrors"`
}

// String renders the snapshot as a one-line summary.
func (s SweepStats) String() string {
	line := fmt.Sprintf("sweep: %d workers, %d simulated, %d shared, %d memo hits, %d deduped",
		s.Workers, s.Runs, s.Shared, s.MemoHits, s.Deduped)
	if s.CacheHits+s.CacheMisses+s.CacheErrors > 0 {
		line += fmt.Sprintf("; cache: %d hits, %d misses, %d errors",
			s.CacheHits, s.CacheMisses, s.CacheErrors)
	}
	return line
}
