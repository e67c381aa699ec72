package exper

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/ckpt"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
)

// floodSpec is a tracked spec with a 4096-register file: its live-register
// histograms make its answer about 260 KB, so a few hundred distinct
// budgets overflow the result table.
func floodSpec(budget int64) Spec {
	return Spec{
		Bench: "compress", Width: 4, Queue: 32, Regs: 4096,
		Model: rename.Precise, Cache: cache.LockupFree, Track: true, Budget: budget,
	}
}

// checkTable fails the test if the suite's result table holds more than its
// bound, or its LRU list, its index and its sibling sources disagree.
func checkTable(t *testing.T, s *Suite) {
	t.Helper()
	s.table.mu.Lock()
	defer s.table.mu.Unlock()
	if s.table.bytes > tableBytes || s.table.lru.Len() != len(s.table.entries) {
		t.Fatalf("result table holds %d bytes in %d entries (%d indexed), bound %d",
			s.table.bytes, s.table.lru.Len(), len(s.table.entries), tableBytes)
	}
	for g, srcs := range s.table.groups {
		for _, el := range srcs {
			if e := el.Value.(*tableEntry); s.table.entries[e.spec] != el || SiblingGroup(e.spec) != g {
				t.Fatalf("sibling source %+v of group %+v is not in the table", e.spec, g)
			}
		}
	}
}

// TestResultTableFlood: distinct tracked specs with a large register file,
// the traffic of a register-file design-space sweep, overflow the table's
// byte bound. The table stays within it by dropping the least recently used
// answers: the oldest spec simulates again, and the newest is answered from
// memory.
func TestResultTableFlood(t *testing.T) {
	const specs = 400
	s := NewSuite(1)
	for b := int64(1); b <= specs; b++ {
		if _, err := s.Run(floodSpec(b)); err != nil {
			t.Fatal(err)
		}
		checkTable(t, s)
	}
	flood := s.SweepStats()
	if flood.Runs != specs || flood.Evicted == 0 {
		t.Fatalf("flood: %d simulated, %d evicted; want %d simulated and some evicted", flood.Runs, flood.Evicted, specs)
	}
	if _, err := s.Run(floodSpec(specs)); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.MemoHits != flood.MemoHits+1 || st.Runs != specs {
		t.Errorf("newest spec: %d memo hits, %d simulated; want a memo hit", st.MemoHits, st.Runs)
	}
	if _, err := s.Run(floodSpec(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); st.Runs != specs+1 {
		t.Errorf("oldest spec: %d simulated, want it simulated again", st.Runs)
	}
	checkTable(t, s)
}

// TestTableAnswersRunsFinishingConcurrently: goroutines ask for one spec and
// then its siblings while its one run finishes. Whether a request joins the
// run, finds its answer in the table, or misses the table just before the
// answer lands and reaches the engine after the run has left it, the spec
// simulates once and each sibling is shared once.
func TestTableAnswersRunsFinishingConcurrently(t *testing.T) {
	const budget = 2_000
	trunk := Spec{Bench: "tomcatv", Width: 4, Queue: 32, Regs: 256, Model: rename.Precise, Cache: cache.LockupFree}
	specs := []Spec{trunk}
	for _, regs := range []int{192, 160, 128} {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			sib := trunk
			sib.Regs, sib.Model = regs, model
			specs = append(specs, sib)
		}
	}
	for round := 0; round < 10; round++ {
		s := NewSuite(budget)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, spec := range specs {
					if _, err := s.Run(spec); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if st := s.SweepStats(); st.Runs != 1 || st.Shared != int64(len(specs)-1) {
			t.Fatalf("round %d: %d simulated, %d shared; want 1 and %d", round, st.Runs, st.Shared, len(specs)-1)
		}
	}

	// The window the goroutines hit only by chance, made certain: a caller
	// that missed the table before the run finished reaches the engine
	// after the run has left it, and gets the run's answer.
	s := NewSuite(budget)
	spec := s.normalize(trunk)
	if _, ok := s.table.get(spec); ok {
		t.Fatal("a fresh suite's table answered")
	}
	want, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.engine().Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStats(); got != want || st.Runs != 1 {
		t.Errorf("late caller: %d simulated, same answer %v; want the finished run's answer", st.Runs, got == want)
	}
}

// TestPaperAllWork pins the work of `paper all` on one suite and one worker:
// Table 1, Figures 3–8 and 10, and the findings. The memo hits are the reuse
// between figures and nothing else: Figure 4 reads Figure 3's 18 runs at
// the cost-effective queue sizes, Figure 5 one of them, Figure 7 Figure 6's
// 288 lockup-free points, and Figure 8 Figure 3's compress run.
func TestPaperAllWork(t *testing.T) {
	s := NewSuite(3000)
	s.Jobs = 1
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	f3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	f10, err := s.Fig10(f6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Findings(f3, f6, f10); err != nil {
		t.Fatal(err)
	}
	want := telemetry.SweepStats{Workers: 1, Runs: 733, Shared: 259, MemoHits: 18 + 1 + 288 + 1}
	if got := s.SweepStats(); got != want {
		t.Errorf("paper all at budget 3000:\n got  %+v\n want %+v", got, want)
	}
	t.Logf("result table holds %.1f MiB", float64(s.table.bytes)/(1<<20))
}

// TestFig6SessionWork pins the work of a Fig. 6 session over fresh stores,
// each phase a fresh suite on one worker, as `paper -jobs 1` runs them: a
// cold sweep, a warm rerun and a rerun at twice the budget. The cold sweep
// misses the cache once per spec (the batch lookup ahead of the engine and
// simulate do not both count it) and simulates the 220 runs no sibling
// answers; the warm rerun is all cache hits and simulates nothing; the
// extended one resumes every run it simulates from the cold one's snapshot.
func TestFig6SessionWork(t *testing.T) {
	dir := t.TempDir()
	for _, phase := range []struct {
		name   string
		budget int64
		sweep  telemetry.SweepStats
		ckpt   ckpt.Stats
	}{
		{"cold", 3000, telemetry.SweepStats{Workers: 1, Runs: 220, Shared: 68, CacheMisses: 288}, ckpt.Stats{SnapshotMisses: 220}},
		{"warm", 3000, telemetry.SweepStats{Workers: 1, CacheHits: 288}, ckpt.Stats{}},
		{"extended", 6000, telemetry.SweepStats{Workers: 1, Runs: 220, Shared: 68, CacheMisses: 288}, ckpt.Stats{SnapshotHits: 220}},
	} {
		s := NewSuite(phase.budget)
		s.Jobs = 1
		var err error
		if s.Cache, err = rescache.Open(filepath.Join(dir, "D")); err != nil {
			t.Fatal(err)
		}
		if s.Checkpoints, err = ckpt.OpenStore(filepath.Join(dir, "C")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fig6(); err != nil {
			t.Fatal(err)
		}
		if got := s.SweepStats(); got != phase.sweep {
			t.Errorf("%s fig6 at budget %d:\n got  %v\n want %v", phase.name, phase.budget, got, phase.sweep)
		}
		if got := s.Checkpoints.Stats(); got != phase.ckpt {
			t.Errorf("%s fig6 at budget %d: checkpoint store %+v, want %+v", phase.name, phase.budget, got, phase.ckpt)
		}
	}
}
