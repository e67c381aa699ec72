package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counting returns a run function that tallies executions per key and a
// getter for the tally.
func counting(t *testing.T) (func(context.Context, int) (int, error), func(int) int64) {
	t.Helper()
	var mu sync.Mutex
	counts := map[int]*int64{}
	run := func(_ context.Context, k int) (int, error) {
		mu.Lock()
		c, ok := counts[k]
		if !ok {
			c = new(int64)
			counts[k] = c
		}
		mu.Unlock()
		atomic.AddInt64(c, 1)
		return k * 10, nil
	}
	get := func(k int) int64 {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := counts[k]; ok {
			return atomic.LoadInt64(c)
		}
		return 0
	}
	return run, get
}

func TestDoAllDedupAndOrder(t *testing.T) {
	run, got := counting(t)
	e := New(4, run)
	keys := []int{3, 1, 2, 1, 3, 3, 4}
	res, err := e.DoAll(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(keys) {
		t.Fatalf("got %d results, want %d", len(res), len(keys))
	}
	for i, k := range keys {
		if res[i] != k*10 {
			t.Errorf("results[%d] = %d, want %d (ordering lost)", i, res[i], k*10)
		}
	}
	for _, k := range []int{1, 2, 3, 4} {
		if n := got(k); n != 1 {
			t.Errorf("key %d executed %d times, want 1", k, n)
		}
	}
	st := e.Stats()
	if st.Runs != 4 {
		t.Errorf("Runs = %d, want 4", st.Runs)
	}
}

// TestFinishedCallsAreDropped: the engine keeps a call only while it runs,
// so a finished execution leaves neither its result nor its leader's
// context behind, and a later batch runs its keys again.
func TestFinishedCallsAreDropped(t *testing.T) {
	run, got := counting(t)
	e := New(2, run)
	keys := []int{1, 2, 3}
	for batch := int64(1); batch <= 2; batch++ {
		if _, err := e.DoAll(context.Background(), keys); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		n := len(e.calls)
		e.mu.Unlock()
		if n != 0 {
			t.Fatalf("after batch %d the engine holds %d calls, want none", batch, n)
		}
		for _, k := range keys {
			if n := got(k); n != batch {
				t.Errorf("key %d executed %d times in %d batches", k, n, batch)
			}
		}
	}
}

func TestConcurrencyBound(t *testing.T) {
	const jobs = 3
	var cur, peak atomic.Int64
	e := New(jobs, func(context.Context, int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	keys := make([]int, 50)
	for i := range keys {
		keys[i] = i
	}
	if _, err := e.DoAll(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("observed %d concurrent executions, bound is %d", p, jobs)
	}
}

func TestSingleflightConcurrentDo(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	e := New(4, func(context.Context, int) (int, error) {
		runs.Add(1)
		close(started)
		<-release
		return 42, nil
	})
	const callers = 8
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Do(context.Background(), 7)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	<-started
	// Release the execution only once every caller has joined it: a caller
	// that arrives after it finished runs the key again.
	deadline := time.After(5 * time.Second)
	for e.Stats().Deduped != callers-1 {
		select {
		case <-deadline:
			t.Fatalf("%d of %d callers joined the execution", e.Stats().Deduped, callers-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("%d executions for one key under concurrent Do, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
}

func TestFirstErrorCancelsQueuedWork(t *testing.T) {
	var ran []int
	var mu sync.Mutex
	boom := errors.New("boom")
	e := New(1, func(_ context.Context, k int) (int, error) {
		mu.Lock()
		ran = append(ran, k)
		mu.Unlock()
		if k == 2 {
			return 0, boom
		}
		return k, nil
	})
	// One worker executes in feed order, so key 3 sits behind the failing
	// key 2 and must never run.
	_, err := e.DoAll(context.Background(), []int{1, 2, 3})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range ran {
		if k == 3 {
			t.Error("key behind the failing key was executed; cancellation did not propagate")
		}
	}
}

func TestErrorsAreNotMemoised(t *testing.T) {
	var calls atomic.Int64
	e := New(2, func(_ context.Context, k int) (int, error) {
		if calls.Add(1) == 1 {
			return 0, errors.New("transient")
		}
		return k, nil
	})
	if _, err := e.Do(context.Background(), 5); err == nil {
		t.Fatal("first call should fail")
	}
	v, err := e.Do(context.Background(), 5)
	if err != nil {
		t.Fatalf("second call: %v (failure was memoised)", err)
	}
	if v != 5 {
		t.Errorf("got %d, want 5", v)
	}
}

func TestParentCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(2, func(_ context.Context, k int) (int, error) {
		return k, nil
	})
	if _, err := e.DoAll(ctx, []int{1, 2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelledBatchDoesNotPoisonOtherCallers(t *testing.T) {
	// A waiter piggybacking on an execution whose own batch context ends in
	// cancellation must retry rather than report the foreign cancellation.
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	e := New(2, func(ctx context.Context, k int) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return 0, ctx.Err() // first execution observes its cancelled batch
		}
		return k, nil
	})
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx1, 9)
		done1 <- err
	}()
	<-started
	cancel1()

	done2 := make(chan error, 1)
	go func() {
		v, err := e.Do(context.Background(), 9)
		if err == nil && v != 9 {
			err = fmt.Errorf("got %d, want 9", v)
		}
		done2 <- err
	}()
	// Give the second caller time to park on the in-flight call before it
	// resolves with the foreign cancellation.
	time.Sleep(2 * time.Millisecond)
	close(release)
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled caller got %v, want context.Canceled", err)
	}
	if err := <-done2; err != nil {
		t.Errorf("live caller got %v, want retried success", err)
	}
}

func TestExpiredDeadlineDoesNotPoisonOtherCallers(t *testing.T) {
	// Same as above, but the first caller's deadline fires instead of an
	// explicit cancel — the shape a served request produces when its
	// ?timeout= expires mid-simulation. The piggybacker with a live context
	// must retry, not inherit the stranger's deadline error.
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	e := New(2, func(ctx context.Context, k int) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return 0, ctx.Err() // first execution observes its expired deadline
		}
		return k, nil
	})
	ctx1, cancel1 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel1()
	done1 := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx1, 9)
		done1 <- err
	}()
	<-started
	<-ctx1.Done() // let the deadline actually fire before the run resolves

	done2 := make(chan error, 1)
	go func() {
		v, err := e.Do(context.Background(), 9)
		if err == nil && v != 9 {
			err = fmt.Errorf("got %d, want 9", v)
		}
		done2 <- err
	}()
	time.Sleep(2 * time.Millisecond)
	close(release)
	if err := <-done1; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired caller got %v, want context.DeadlineExceeded", err)
	}
	if err := <-done2; err != nil {
		t.Errorf("live caller got %v, want retried success", err)
	}
}

func TestWorkerID(t *testing.T) {
	if WorkerID(context.Background()) != 0 {
		t.Error("background context should have worker ID 0")
	}
	const jobs = 3
	seen := make(map[int]bool)
	var mu sync.Mutex
	e := New(jobs, func(ctx context.Context, k int) (int, error) {
		id := WorkerID(ctx)
		mu.Lock()
		seen[id] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return k, nil
	})
	keys := make([]int, 24)
	for i := range keys {
		keys[i] = i
	}
	if _, err := e.DoAll(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	for id := range seen {
		if id < 1 || id > jobs {
			t.Errorf("worker ID %d out of range [1,%d]", id, jobs)
		}
	}
	if len(seen) == 0 {
		t.Error("no worker IDs observed")
	}
}

func TestDefaultJobs(t *testing.T) {
	e := New(0, func(_ context.Context, k int) (int, error) { return k, nil })
	if e.Jobs() < 1 {
		t.Errorf("default jobs = %d, want >= 1", e.Jobs())
	}
}

func TestOnCoalesceHook(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := New(4, func(ctx context.Context, k int) (int, error) {
		close(started)
		<-release
		return k, nil
	})

	type pair struct{ waiter, leader context.Context }
	var mu sync.Mutex
	var coalesces []pair
	var completions int
	e.OnCoalesce = func(waiter, leader context.Context) func() {
		mu.Lock()
		coalesces = append(coalesces, pair{waiter, leader})
		mu.Unlock()
		return func() {
			mu.Lock()
			completions++
			mu.Unlock()
		}
	}

	type keyT struct{}
	leaderCtx := context.WithValue(context.Background(), keyT{}, "leader")
	waiterCtx := context.WithValue(context.Background(), keyT{}, "waiter")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Do(leaderCtx, 1)
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Do(waiterCtx, 1)
	}()

	// Wait for the waiter to register before releasing the leader.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(coalesces)
		mu.Unlock()
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("OnCoalesce never fired")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(coalesces) != 1 || completions != 1 {
		t.Fatalf("coalesces=%d completions=%d, want 1/1", len(coalesces), completions)
	}
	// The hook receives the true contexts of both sides: the waiter's own,
	// and the context the leader's execution started under.
	if got := coalesces[0].waiter.Value(keyT{}); got != "waiter" {
		t.Errorf("waiter context value = %v", got)
	}
	if got := coalesces[0].leader.Value(keyT{}); got != "leader" {
		t.Errorf("leader context value = %v", got)
	}
}

func TestOnCoalesceCompletionFiresOnWaiterDeadline(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := New(4, func(ctx context.Context, k int) (int, error) {
		close(started)
		<-release
		return k, nil
	})
	defer close(release)

	done := make(chan struct{}, 1)
	e.OnCoalesce = func(waiter, leader context.Context) func() {
		return func() { done <- struct{}{} }
	}

	go e.Do(context.Background(), 1)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.Do(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error = %v, want deadline exceeded", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("completion callback never fired for an expired waiter")
	}
}

func TestActiveGauge(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := New(4, func(ctx context.Context, k int) (int, error) {
		started <- struct{}{}
		<-release
		return k, nil
	})
	if e.Stats().Active != 0 {
		t.Fatal("idle engine reports active executions")
	}
	go e.Do(context.Background(), 1)
	go e.Do(context.Background(), 2)
	<-started
	<-started
	if got := e.Stats().Active; got != 2 {
		t.Fatalf("Active = %d with two executions running, want 2", got)
	}
	close(release)
	// Both executions drain; Active must return to zero.
	deadline := time.After(5 * time.Second)
	for e.Stats().Active != 0 {
		select {
		case <-deadline:
			t.Fatalf("Active stuck at %d after drain", e.Stats().Active)
		case <-time.After(time.Millisecond):
		}
	}
}
