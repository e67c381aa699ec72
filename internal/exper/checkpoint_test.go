package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return want
}

// openStore opens a checkpoint store over a fresh directory.
func openStore(t *testing.T) *ckpt.Store {
	t.Helper()
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// resumeDepth parses a checkpoint progress line, "ckpt <bench> regs=<n>
// <model>: resumed at <N> commits", into its spec ("regs=<n> <model>") and
// the commit count N it resumed at.
func resumeDepth(line string) (spec string, n int64, ok bool) {
	f := strings.Fields(line)
	if len(f) != 8 || f[0] != "ckpt" || f[4] != "resumed" {
		return "", 0, false
	}
	if _, err := fmt.Sscanf(f[6], "%d", &n); err != nil {
		return "", 0, false
	}
	return f[2] + " " + strings.TrimSuffix(f[3], ":"), n, true
}

// shortOf reports whether n lies within one commit bundle short of budget,
// (budget-2·width, budget]: where a run at that budget stores its state.
func shortOf(n, budget int64, width int) bool {
	return n > budget-2*int64(width) && n <= budget
}

// TestCheckpointedGoldens is the byte-identity contract of checkpoint
// fast-forwarding: the full golden cross-product, run through a suite over
// an on-disk checkpoint store, must reproduce the committed golden
// fingerprints exactly — whether results come from cold runs that store
// their state, then from a same-budget repeat that resumes each of them one
// commit bundle short of the budget (pass one), from fast-forwarding over
// another budget's states (pass two), or from a store reopened over the
// same directory, as a later process sees it (pass three).
func TestCheckpointedGoldens(t *testing.T) {
	want := readGoldens(t)
	specs := goldenSpecs()

	check := func(t *testing.T, s *Suite, specs []Spec) {
		for _, spec := range specs {
			res, err := s.Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", goldenKey(spec), err)
			}
			w, ok := want[goldenKey(spec)]
			if !ok {
				t.Fatalf("%s: no committed golden", goldenKey(spec))
			}
			if g := goldenFingerprint(t, res); g != w {
				t.Errorf("%s: checkpointed result drifted from golden\n  got  %s\n  want %s", goldenKey(spec), g, w)
			}
		}
	}
	populate := func(t *testing.T, store *ckpt.Store, budget int64, specs []Spec) {
		warm := NewSuite(budget)
		warm.Checkpoints = store
		for _, spec := range specs {
			if _, err := warm.Run(spec); err != nil {
				t.Fatalf("warm %s: %v", goldenKey(spec), err)
			}
		}
	}

	t.Run("capture", func(t *testing.T) {
		store := openStore(t)
		s := NewSuite(goldenBudget)
		s.Checkpoints = store
		check(t, s, specs)
		// The repeat has neither a result cache nor the first suite's memo:
		// every spec it simulates resumes from its stored state, which lies
		// one commit bundle (at most 2×8 commits) short of the budget.
		again := NewSuite(goldenBudget)
		again.Checkpoints = store
		var resumed int64
		again.Progress = func(line string) {
			if _, n, ok := resumeDepth(line); ok {
				resumed++
				if !shortOf(n, goldenBudget, 8) {
					t.Errorf("same-budget repeat resumed at %d commits, want (%d, %d]: %s", n, goldenBudget-16, goldenBudget, line)
				}
			}
		}
		check(t, again, specs)
		if runs := again.SweepStats().Runs; runs == 0 || resumed != runs {
			t.Errorf("same-budget repeat resumed %d of its %d simulated specs", resumed, runs)
		}
	})

	t.Run("resume", func(t *testing.T) {
		// Populate the store at half the budget, then run the goldens: every
		// spec fast-forwards over the half-budget run's state and simulates
		// only the rest.
		store := openStore(t)
		populate(t, store, goldenBudget/2, specs)
		s := NewSuite(goldenBudget)
		s.Checkpoints = store
		check(t, s, specs)
		if st := store.Stats(); st.SnapshotHits == 0 {
			t.Error("resume pass never hit a stored snapshot")
		}
	})

	t.Run("disk", func(t *testing.T) {
		if testing.Short() {
			t.Skip("disk pass writes full snapshot files")
		}
		// A subset of the cross-product (every seventh spec plus the tracked
		// ones) keeps the disk traffic sane while still covering both
		// benches, widths, models and cache kinds.
		var subset []Spec
		for i, spec := range specs {
			if i%7 == 0 || spec.Track {
				subset = append(subset, spec)
			}
		}
		dir := t.TempDir()
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, store, goldenBudget/2, subset)
		// A fresh store over the same directory is what a later process
		// opens: every snapshot it serves was written by another Store.
		reopened, err := ckpt.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSuite(goldenBudget)
		s.Checkpoints = reopened
		check(t, s, subset)
		if st := reopened.Stats(); st.SnapshotHits == 0 {
			t.Error("disk pass never hit a persisted snapshot")
		}
	})
}

// TestCheckpointSharing pins what a register-file sweep under a checkpoint
// store shares, and the store's one-entry-per-configuration contract.
// Within a sweep, finished pressure-free runs answer their siblings. Across
// budgets, each configuration keeps only the deepest state any run of it
// stored:
//   - at 2B, every spec also simulated at B resumes one commit bundle short
//     of B, and none the B sweep shared resumes;
//   - a later sweep at B resumes nothing (every stored state lies past its
//     stop), matches a storeless sweep byte for byte, and leaves the deeper
//     states in place, so another sweep at 2B resumes short of 2B;
//   - the directory holds one entry per configuration ever simulated.
func TestCheckpointSharing(t *testing.T) {
	const budget, width = 4_096, 4
	var specs []Spec
	for _, regs := range RegSizes {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			specs = append(specs, Spec{Bench: "compress", Width: width, Queue: 32, Regs: regs, Model: model, Cache: cache.LockupFree})
		}
	}
	dir := t.TempDir()
	simulated := make(map[string]bool) // over every sweep
	// sweep runs specs at the given budget through a suite over dir, and
	// returns it with its results, the specs ("regs=N model") it simulated,
	// and the commit count each resumed spec resumed at.
	sweep := func(budget int64) (s *Suite, results []*core.Result, ran map[string]bool, resumed map[string]int64) {
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s = NewSuite(budget)
		s.Jobs = 1 // trunk-first in a fixed order: the shared set is deterministic
		s.Checkpoints = store
		ran, resumed = make(map[string]bool), make(map[string]int64)
		s.Progress = func(line string) {
			if f := strings.Fields(line); f[0] == "ran" {
				ran[f[4]+" "+strings.Split(f[5], "/")[0]] = true
			} else if spec, n, ok := resumeDepth(line); ok {
				resumed[spec] = n
			}
		}
		results, err = s.RunAll(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for spec := range ran {
			simulated[spec] = true
		}
		return s, results, ran, resumed
	}

	first, _, ran1, _ := sweep(budget)
	if st := first.SweepStats(); st.Shared == 0 || st.Runs >= int64(len(specs)) {
		t.Errorf("sweep simulated %d and shared %d of %d specs; sibling sharing saved nothing", st.Runs, st.Shared, len(specs))
	}
	_, _, ran2, resumed := sweep(2 * budget)
	both := 0
	for spec := range ran2 {
		n, ok := resumed[spec]
		switch {
		case ran1[spec]:
			both++
			if !ok || !shortOf(n, budget, width) {
				t.Errorf("%s: simulated at budget %d, but at budget %d resumed at %d commits (resumed=%v), want (%d, %d]",
					spec, budget, 2*budget, n, ok, budget-2*width, budget)
			}
		case ok:
			t.Errorf("%s: shared at budget %d, yet resumed at budget %d", spec, budget, 2*budget)
		}
	}
	if both == 0 {
		t.Error("no spec simulated at both budgets; the resume check would pass vacuously")
	}

	// Back down to B: every stored state lies past this budget's stop. The
	// store counts each such state as deeper than the budget, not as a hit,
	// and each simulated spec without one as a miss.
	seen := make(map[string]bool, len(simulated))
	for spec := range simulated {
		seen[spec] = true
	}
	back, results, ran3, resumed := sweep(budget)
	if len(ran3) == 0 {
		t.Error("the sweep back at the smaller budget simulated nothing; its checks would pass vacuously")
	}
	for spec, n := range resumed {
		t.Errorf("%s: resumed at %d commits in a sweep at budget %d, past the cold run's stop", spec, n, budget)
	}
	var deeper int64
	for spec := range ran3 {
		if seen[spec] {
			deeper++
		}
	}
	if deeper == 0 {
		t.Error("no spec of the sweep back at the smaller budget had a stored state; the count check would pass vacuously")
	}
	if st := back.Checkpoints.Stats(); st.SnapshotHits != 0 || st.SnapshotDeeper != deeper || st.SnapshotMisses != int64(len(ran3))-deeper {
		t.Errorf("store counted %d hits, %d deeper, %d misses; want 0, %d, %d",
			st.SnapshotHits, st.SnapshotDeeper, st.SnapshotMisses, deeper, int64(len(ran3))-deeper)
	}
	plain, err := NewSuite(budget).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		got, _ := json.Marshal(results[i])
		want, _ := json.Marshal(plain[i])
		if string(got) != string(want) {
			t.Errorf("%s: result over the deeper store differs from a storeless run", goldenKey(spec))
		}
	}

	// That sweep stored nothing shallower: back at 2B, every simulated spec
	// resumes one bundle short of 2B.
	_, _, ran4, resumed := sweep(2 * budget)
	for spec := range ran4 {
		if n, ok := resumed[spec]; !ok || !shortOf(n, 2*budget, width) {
			t.Errorf("%s: at budget %d again, resumed at %d commits (resumed=%v), want (%d, %d]",
				spec, 2*budget, n, ok, 2*budget-2*width, 2*budget)
		}
	}

	// One live snapshot record per configuration simulated. A fresh
	// store's first scan folds any segment holding more superseded than
	// live bytes, so none is left.
	disk, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, seg := range disk.Segments() {
		live += seg.Live
		if seg.Bytes-seg.LiveBytes > seg.LiveBytes {
			t.Errorf("segment %+v holds more superseded than live bytes after a fresh store's first scan", seg)
		}
	}
	if live != len(simulated) {
		t.Errorf("checkpoint dir holds %d live snapshot records for %d configurations simulated", live, len(simulated))
	}
}

// TestCheckpointedSweepGarbage: the checkpoint store captures and decodes
// through pooled scratch graphs and buffers, so a checkpointed Fig. 6 sweep
// allocates at most 1.5× a storeless one, cold and extended to twice the
// budget over the cold sweep's states (with a snapshot graph and an entry
// copy per run, it allocated 1.9× and 2.2×).
func TestCheckpointedSweepGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not the race detector's to measure, and its four sweeps take 80 s under it")
	}
	const budget = 8_000
	store := openStore(t)
	sweep := func(budget int64, store *ckpt.Store) uint64 {
		s := NewSuite(budget)
		s.Jobs = 1
		s.Checkpoints = store
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Fig6(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, cold := sweep(budget, nil), sweep(budget, store)
	plain2, extend := sweep(2*budget, nil), sweep(2*budget, store)
	t.Logf("cold: %d B against %d B storeless; extend: %d B against %d B", cold, plain, extend, plain2)
	if float64(cold) > 1.5*float64(plain) {
		t.Errorf("checkpointed cold sweep allocates %.2f× a storeless one, over 1.5×", float64(cold)/float64(plain))
	}
	if float64(extend) > 1.5*float64(plain2) {
		t.Errorf("checkpointed extend allocates %.2f× a storeless sweep at its budget, over 1.5×", float64(extend)/float64(plain2))
	}
}

// TestConfigKeyPinned pins per-configuration checkpoint keys: a change to
// the key material orphans every existing checkpoint directory, so it may
// only come with a version bump, which changes these pins on purpose. The
// budget is not part of the key.
func TestConfigKeyPinned(t *testing.T) {
	art, err := NewSuite(1).artifact("compress")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 64, Model: rename.Imprecise, Cache: cache.LockupFree, Budget: 50_000},
			"ff51e2d62006dc76d6f5d5104dc1fb55466e5751b52c07521db447640636133e"},
		{Spec{Bench: "compress", Width: 4, Queue: 32, Regs: MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Track: true, Budget: 50_000},
			"4eee8f12d05b2c0bf894cf9701929363250e323839bf850b465c4e6d8ffca640"},
	}
	for _, c := range cases {
		got := configKey(c.spec, art)
		if got != c.want {
			t.Errorf("%s: key %s, want %s", goldenKey(c.spec), got, c.want)
		}
		c.spec.Budget *= 2
		if again := configKey(c.spec, art); again != got {
			t.Errorf("%s: key depends on the budget", goldenKey(c.spec))
		}
	}
}

// TestFingerprintBindsVersions pins that the persistent-cache key material
// includes every behavioural version string — simulator, workload,
// artifact, checkpoint — by recomputing the fingerprint shape with each
// version doctored and asserting a different key (i.e. a cache miss) every
// time. If fingerprint() gains or loses a field, the mirrored shape here
// fails to match and this test breaks loudly, which is the point.
func TestFingerprintBindsVersions(t *testing.T) {
	spec := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 80,
		Model: rename.Precise, Budget: 8_000}

	type mat struct {
		Sim      string `json:"sim"`
		Workload string `json:"workload"`
		Prog     string `json:"prog"`
		Ckpt     string `json:"ckpt"`
		Bench    string `json:"bench"`
		Width    int    `json:"width"`
		Queue    int    `json:"queue"`
		Regs     int    `json:"regs"`
		Model    string `json:"model"`
		Cache    string `json:"cache"`
		Track    bool   `json:"track"`
		Budget   int64  `json:"budget"`
	}
	mk := func(sim, wl, pg, ck string) string {
		return rescache.Fingerprint(mat{
			Sim: sim, Workload: wl, Prog: pg, Ckpt: ck,
			Bench: spec.Bench, Width: spec.Width, Queue: spec.Queue, Regs: spec.Regs,
			Model: spec.Model.String(), Cache: spec.Cache.String(),
			Track: spec.Track, Budget: spec.Budget,
		})
	}
	base := mk(core.Version, workload.Version, prog.ArtifactVersion, ckpt.Version)
	if got := Fingerprint(spec); got != base {
		t.Fatalf("fingerprint shape drifted from the mirror in this test: %s vs %s", got, base)
	}
	doctored := map[string]string{
		"sim":      mk("core-999", workload.Version, prog.ArtifactVersion, ckpt.Version),
		"workload": mk(core.Version, "workload-999", prog.ArtifactVersion, ckpt.Version),
		"prog":     mk(core.Version, workload.Version, "prog-artifact-999", ckpt.Version),
		"ckpt":     mk(core.Version, workload.Version, prog.ArtifactVersion, "ckpt-999"),
	}
	for name, fp := range doctored {
		if fp == base {
			t.Errorf("bumping the %s version does not change the cache key", name)
		}
	}
}
