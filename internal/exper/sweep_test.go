package exper

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
)

// renderTable1 runs Table 1 on a fresh suite and returns the rendered bytes.
func renderTable1(t *testing.T, jobs int, store *rescache.Store) string {
	t.Helper()
	s := NewSuite(testBudget)
	s.Jobs = jobs
	s.Cache = store
	tab, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.Print(&sb)
	return sb.String()
}

// TestDeterministicAcrossJobs: a figure-sized matrix must render
// byte-identically at -jobs=1, 4 and 8 — same seeds mean same results
// regardless of scheduling — and again from a warm persistent cache.
func TestDeterministicAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	store, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	serial := renderTable1(t, 1, nil)
	cold := renderTable1(t, 4, store) // fills the cache in parallel
	if cold != serial {
		t.Errorf("jobs=4 output differs from jobs=1:\n--- jobs=1\n%s--- jobs=4\n%s", serial, cold)
	}
	warmStore, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := renderTable1(t, 8, warmStore) // renders from cached results
	if warm != serial {
		t.Errorf("warm-cache jobs=8 output differs from jobs=1:\n--- jobs=1\n%s--- warm\n%s", serial, warm)
	}
	if st := warmStore.Stats(); st.Hits == 0 {
		t.Error("warm run hit the cache zero times; cache is not being consulted")
	}
	if st := store.Stats(); st.Hits != 0 {
		t.Errorf("cold run reported %d cache hits on an empty cache", st.Hits)
	}
}

// TestCacheCorruptionIsResimulated: a truncated or garbage cache entry must
// be silently re-simulated (and produce the same result), never fail a sweep.
func TestCacheCorruptionIsResimulated(t *testing.T) {
	dir := t.TempDir()
	store, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Bench: "ora", Width: 4, Queue: 32, Regs: 64,
		Model: rename.Precise, Cache: cache.LockupFree}
	s1 := NewSuite(testBudget)
	s1.Cache = store
	want, err := s1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the record inside every segment on disk: the run stored one
	// record, whose data ends its segment.
	var corrupted int
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || filepath.Ext(path) != ".seg" {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		corrupted++
		b[len(b)-1] ^= 0xff
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupted %d segments (err %v)", corrupted, err)
	}
	store2, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(testBudget)
	s2.Cache = store2
	got, err := s2.Run(spec)
	if err != nil {
		t.Fatalf("corrupt cache entry failed the run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-simulated result differs from the original")
	}
	if st := store2.Stats(); st.Errors == 0 {
		t.Error("corruption was not counted in the cache error counter")
	}
	if st := s2.SweepStats(); st.CacheErrors == 0 || st.Runs != 1 {
		t.Errorf("sweep stats %+v: want the corrupt entry re-simulated and counted", st)
	}
	// The healed entry serves the next process.
	store3, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewSuite(testBudget)
	s3.Cache = store3
	if _, err := s3.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st := s3.SweepStats(); st.CacheHits != 1 || st.Runs != 0 {
		t.Errorf("sweep stats %+v: want a pure cache hit after healing", st)
	}
}

// TestSuiteConcurrentRun: a Suite must now be safe for concurrent use —
// many goroutines requesting overlapping specs get coherent, shared results.
func TestSuiteConcurrentRun(t *testing.T) {
	s := NewSuite(testBudget)
	specs := []Spec{
		{Bench: "ora", Width: 4, Queue: 32, Regs: 64, Model: rename.Precise, Cache: cache.LockupFree},
		{Bench: "ora", Width: 8, Queue: 64, Regs: 64, Model: rename.Precise, Cache: cache.LockupFree},
		{Bench: "compress", Width: 4, Queue: 32, Regs: 64, Model: rename.Imprecise, Cache: cache.LockupFree},
	}
	const callers = 12
	results := make([]map[Spec]any, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = map[Spec]any{}
			for _, spec := range specs {
				res, err := s.Run(spec)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g][spec] = res
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		for _, spec := range specs {
			if results[g][spec] != results[0][spec] {
				t.Errorf("goroutine %d got a different result pointer for %v: memo is not shared", g, spec)
			}
		}
	}
	if st := s.SweepStats(); st.Runs != int64(len(specs)) {
		t.Errorf("%d simulations executed for %d unique specs under %d concurrent callers",
			st.Runs, len(specs), callers)
	}
}

// TestPrefetchErrorPropagates: an unknown benchmark anywhere in a figure's
// batch must fail the batch, not hang or be silently skipped.
func TestPrefetchErrorPropagates(t *testing.T) {
	s := NewSuite(testBudget)
	s.Jobs = 4
	_, err := s.RunAll(context.Background(), []Spec{
		{Bench: "ora", Width: 4, Queue: 32, Regs: 64, Model: rename.Precise, Cache: cache.LockupFree},
		{Bench: "nosuch", Width: 4, Queue: 32, Regs: 64, Model: rename.Precise, Cache: cache.LockupFree},
	})
	if err == nil {
		t.Fatal("a batch with an unknown benchmark succeeded")
	}
	if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error %q does not identify the failing spec", err)
	}
}

// TestCachedResultsRenderIdentically: a figure built purely from cached
// results (second process) must match the one that simulated (first
// process), including the tracked histograms that feed Figure 5.
func TestCachedResultsRenderIdentically(t *testing.T) {
	dir := t.TempDir()
	render := func() string {
		store, err := rescache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSuite(testBudget)
		s.Cache = store
		f, err := s.Fig5() // tracked run: exercises histogram serialisation
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		f.Print(&sb)
		return sb.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Errorf("cached render differs:\n--- simulated\n%s--- cached\n%s", first, second)
	}
}
