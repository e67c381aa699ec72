package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"regsim/internal/core"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
)

// entryBytes encodes snap under a fixed key: equal bytes mean equal states.
func entryBytes(t testing.TB, snap *core.Snapshot) []byte {
	t.Helper()
	data, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "k", Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// minAllocated reports the fewest bytes any of three calls of f allocates,
// so a collection or a first-time growth during one call does not count.
func minAllocated(f func()) uint64 {
	least := allocated(f)
	for range 2 {
		least = min(least, allocated(f))
	}
	return least
}

// TestCheckpointGarbageBudgets pins the checkpoint path's garbage at
// 50000-commit states of Fig. 6's shape (4-way, queue 32, 64 registers).
// Once the pooled scratch graphs and buffers have grown, capture + encode
// + put and read + decode each allocate at most a tenth of the entry's
// size (before pooling: about 6× and 2.6–2.9×), and core.Resume at most
// 1.4× what core.NewFromArtifact does (1.02–1.35× here: resumed memory
// holds the pages the run touched beyond the data image).
func TestCheckpointGarbageBudgets(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"compress", "gcc1", "tomcatv"} {
		cfg := core.DefaultConfig()
		cfg.RegsPerFile = 64
		m, art, _ := machineAt(t, bench, cfg, 50_000)
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		entry := uint64(len(entryBytes(t, snap)))
		capture := minAllocated(func() {
			if err := st.Capture(bench, m); err != nil {
				t.Fatal(err)
			}
		})
		e := Envelope{Snap: new(core.Snapshot)}
		read := minAllocated(func() {
			if !st.read(bench, &e) {
				t.Fatal("stored entry did not read back")
			}
		})
		fresh := minAllocated(func() {
			if _, err := core.NewFromArtifact(cfg, art); err != nil {
				t.Fatal(err)
			}
		})
		resume := minAllocated(func() {
			if _, err := core.Resume(cfg, art, e.Snap); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: entry %d B; capture+encode+put %d B, read+decode %d B, Resume %d B, NewFromArtifact %d B",
			bench, entry, capture, read, resume, fresh)
		if capture > entry/10 {
			t.Errorf("%s: capture + encode + put allocates %d B, over a tenth of the %d B entry", bench, capture, entry)
		}
		if read > entry/10 {
			t.Errorf("%s: read + decode allocates %d B, over a tenth of the %d B entry", bench, read, entry)
		}
		if float64(resume) > 1.4*float64(fresh) {
			t.Errorf("%s: core.Resume allocates %d B, over 1.4× NewFromArtifact's %d B", bench, resume, fresh)
		}
	}
}

// TestStoreValuesSurviveScratchReuse: Snapshot's graph and Resume's machine
// share nothing with the pooled scratch graphs and read buffers, which later
// captures, reads and resumes of other entries reuse.
func TestStoreValuesSurviveScratchReuse(t *testing.T) {
	const budget = 6_000
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		bench string
		cfg   core.Config
		m     *core.Machine
	}
	var states []state
	for i, bench := range []string{"compress", "tomcatv", "gcc1"} {
		cfg := core.DefaultConfig()
		if i == 1 {
			cfg.Model = rename.Imprecise
		}
		m, _, _ := machineAt(t, bench, cfg, int64(2_000+500*i))
		if err := st.Capture(bench, m); err != nil {
			t.Fatal(err)
		}
		states = append(states, state{bench, cfg, m})
	}
	snap, ok := st.Snapshot("compress")
	if !ok {
		t.Fatal("compress entry did not read back")
	}
	want := entryBytes(t, snap)
	tc := states[1]
	_, art, coldRes := machineAt(t, tc.bench, tc.cfg, budget)
	resumed, _ := st.Resume(tc.bench, budget, tc.cfg, art)
	if resumed == nil {
		t.Fatal("tomcatv entry did not resume")
	}
	// Churn the pools: capture, read and resume the other entries.
	for range 3 {
		for _, s := range states {
			if err := st.Capture(s.bench, s.m); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Snapshot(s.bench); !ok {
				t.Fatalf("%s entry did not read back", s.bench)
			}
			if m, _ := st.Resume(s.bench, budget, s.cfg, artifactOf(t, s.bench)); m == nil {
				t.Fatalf("%s entry did not resume", s.bench)
			}
		}
	}
	if got := entryBytes(t, snap); !bytes.Equal(got, want) {
		t.Error("a snapshot Store.Snapshot returned changed when later calls reused the scratch memory")
	}
	got, err := resumed.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultJSON(t, got), resultJSON(t, coldRes); g != w {
		t.Errorf("a machine Store.Resume returned diverged after later calls reused the scratch memory\ncold:    %s\nresumed: %s", w, g)
	}
}

// TestConcurrentStoreUse: goroutines share one checkpoint store, one result
// cache and the scratch pools. Each captures, reads, snapshots and resumes
// its own configuration and puts and gets its result, and every value read
// back must be byte-identical to what was written or to the cold run. CI
// runs it under the race detector at -count=10.
func TestConcurrentStoreUse(t *testing.T) {
	const warm, budget, rounds = 1_500, 3_000, 3
	ckpts, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The goroutines may not call t.Fatal, which the helpers do on error.
	entry := func(snap *core.Snapshot) []byte {
		data, _ := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "k", Snap: snap})
		return data
	}
	encode := func(r *core.Result) string {
		data, _ := json.Marshal(r)
		return string(data)
	}
	var wg sync.WaitGroup
	for i, bench := range []string{"compress", "tomcatv", "gcc1", "espresso", "compress", "su2cor"} {
		cfg := core.DefaultConfig()
		if i%2 == 1 {
			cfg.Model = rename.Imprecise
		}
		cfg.TrackLiveRegisters = i == 4
		key := fmt.Sprintf("%s-%d", bench, i)
		_, art, coldRes := machineAt(t, bench, cfg, budget)
		cold := resultJSON(t, coldRes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				m, err := core.NewFromArtifact(cfg, art)
				if err != nil {
					t.Error(err)
					return
				}
				short, err := m.Run(warm)
				if err != nil {
					t.Error(err)
					return
				}
				depth := short.Committed
				want, err := m.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if err := ckpts.Capture(key, m); err != nil {
					t.Error(err)
					return
				}
				if snap, ok := ckpts.Snapshot(key); !ok || !bytes.Equal(entry(snap), entry(want)) {
					t.Errorf("%s: the stored snapshot read back different (found=%v)", key, ok)
					return
				}
				r, at := ckpts.Resume(key, budget, cfg, art)
				if r == nil || at != depth {
					t.Errorf("%s: resumed=%v at %d commits, want %d", key, r != nil, at, depth)
					return
				}
				res, err := r.Run(budget)
				if err != nil {
					t.Error(err)
					return
				}
				if got := encode(res); got != cold {
					t.Errorf("%s: resumed result differs from the cold run", key)
					return
				}
				if err := results.Put(key, res); err != nil {
					t.Error(err)
					return
				}
				var back core.Result
				if !results.Get(key, &back) || encode(&back) != cold {
					t.Errorf("%s: the cached result read back different", key)
					return
				}
			}
		}()
	}
	wg.Wait()
}
