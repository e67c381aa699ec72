// Package sweep executes experiment matrices concurrently. It is the
// scheduling half of the sweep subsystem (the persistent result store is the
// rescache subpackage): a bounded worker pool that takes a batch of
// comparable keys, deduplicates them, executes each once even when several
// batches request the same key concurrently (singleflight semantics),
// preserves deterministic result ordering regardless of completion order,
// and propagates the first error while cancelling outstanding work through
// a context. The engine keeps nothing once an execution finishes: keeping
// results is the caller's business (internal/exper keeps them in one
// bounded table).
//
// The package is generic over the key and value types so that it stays a
// dependency leaf; internal/exper instantiates it with (Spec, *core.Result)
// to run the paper's figure matrices.
package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine runs a keyed computation once per key among concurrent callers and
// fans batches out over a bounded worker pool. The zero value is not usable;
// construct with New. An Engine is safe for concurrent use.
type Engine[K comparable, V any] struct {
	jobs int
	run  func(context.Context, K) (V, error)

	// OnCoalesce, when non-nil, is invoked whenever a Do call piggybacks on
	// an in-flight execution of the same key, with the waiter's context and
	// the leader execution's context. The returned function (which may be
	// nil) is called when the wait ends, whichever way it ends — the hook by
	// which the observability layer spans a coalesced wait and links the
	// waiter's trace to the leader's. Set it before the engine's first use.
	OnCoalesce func(waiter, leader context.Context) func()

	mu    sync.Mutex
	calls map[K]*call[V]

	runs    atomic.Int64 // executions started
	active  atomic.Int64 // executions running right now
	deduped atomic.Int64 // calls that piggybacked on an in-flight execution
}

// call is one in-flight execution: it sits in Engine.calls from its start
// until it finishes, and is dropped before done closes. val/err are written
// exactly once before done is closed, so waiters may read them after <-done
// without further synchronisation. ctx is the leader's context, kept so
// coalesced waiters can link their observability trace to the leader's;
// waiters only read values from it, never its deadline.
type call[V any] struct {
	done chan struct{}
	ctx  context.Context
	val  V
	err  error
}

// New returns an engine that executes run with at most jobs concurrent
// workers during DoAll (jobs <= 0 means GOMAXPROCS).
func New[K comparable, V any](jobs int, run func(context.Context, K) (V, error)) *Engine[K, V] {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Engine[K, V]{jobs: jobs, run: run, calls: make(map[K]*call[V])}
}

// Jobs returns the worker-pool bound.
func (e *Engine[K, V]) Jobs() int { return e.jobs }

// Do returns the result for k, executing the run function once for all the
// callers that ask for k while it runs (singleflight). Nothing outlives the
// execution: a later call runs k again. A failed execution's waiters get its
// error, except that a waiter whose own context is still live retries an
// execution that ended in its leader's cancellation or deadline.
func (e *Engine[K, V]) Do(ctx context.Context, k K) (V, error) {
	for {
		e.mu.Lock()
		c, ok := e.calls[k]
		if !ok {
			c = &call[V]{done: make(chan struct{}), ctx: ctx}
			e.calls[k] = c
			e.mu.Unlock()

			e.runs.Add(1)
			e.active.Add(1)
			c.val, c.err = e.run(ctx, k)
			e.active.Add(-1)
			e.mu.Lock()
			delete(e.calls, k)
			e.mu.Unlock()
			close(c.done)
			return c.val, c.err
		}
		e.mu.Unlock()

		e.deduped.Add(1)
		var waitDone func()
		if e.OnCoalesce != nil {
			waitDone = e.OnCoalesce(ctx, c.ctx)
		}
		var err error
		select {
		case <-c.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		if waitDone != nil {
			waitDone()
		}
		if err != nil {
			var zero V
			return zero, err
		}
		if c.err != nil {
			// The execution this caller piggybacked on belonged to a
			// batch that was cancelled or hit its own deadline; this
			// caller's context is still live, so try again.
			if (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue
			}
		}
		return c.val, c.err
	}
}

// DoAll executes every key of a batch and returns the results in the order
// the keys were given, regardless of completion order. Duplicate keys are
// executed once and share a result. At most Jobs executions run at a time.
// On the first non-cancellation error, outstanding work is cancelled via the
// context, queued keys are abandoned, and that error is returned.
func (e *Engine[K, V]) DoAll(ctx context.Context, keys []K) ([]V, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Deduplicate, remembering every result slot each unique key fills.
	slots := make(map[K][]int, len(keys))
	uniq := make([]K, 0, len(keys))
	for i, k := range keys {
		if _, ok := slots[k]; !ok {
			uniq = append(uniq, k)
		}
		slots[k] = append(slots[k], i)
	}

	results := make([]V, len(keys))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	next := make(chan K)
	go func() {
		defer close(next)
		for _, k := range uniq {
			select {
			case next <- k:
			case <-ctx.Done():
				return
			}
		}
	}()
	workers := e.jobs
	if workers > len(uniq) {
		workers = len(uniq)
	}
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wctx := context.WithValue(ctx, workerKey{}, id)
			for k := range next {
				// The feeder's send can race its ctx.Done case, so a
				// key may still arrive after the batch failed; drain
				// it without executing.
				if ctx.Err() != nil {
					continue
				}
				v, err := e.Do(wctx, k)
				if err != nil {
					errMu.Lock()
					if firstErr == nil && !errors.Is(err, context.Canceled) {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
					continue
				}
				// Each worker owns the slots of the keys it drew
				// from the channel, so these writes never overlap.
				for _, i := range slots[k] {
					results[i] = v
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Jobs is the worker-pool bound.
	Jobs int
	// Runs counts executions actually started, including executions that
	// later failed.
	Runs int64
	// Active counts executions running at the moment of the snapshot — the
	// worker-utilization gauge (Active/Jobs is the pool's instantaneous
	// occupancy).
	Active int64
	// Deduped counts calls that waited on an in-flight execution of the
	// same key instead of starting their own.
	Deduped int64
}

// Stats returns the engine's counters.
func (e *Engine[K, V]) Stats() Stats {
	return Stats{
		Jobs:    e.jobs,
		Runs:    e.runs.Load(),
		Active:  e.active.Load(),
		Deduped: e.deduped.Load(),
	}
}

type workerKey struct{}

// WorkerID returns the 1-based index of the DoAll pool worker executing this
// context, or 0 when the execution was requested directly through Do. Run
// functions use it to label per-worker progress output.
func WorkerID(ctx context.Context) int {
	id, _ := ctx.Value(workerKey{}).(int)
	return id
}
