package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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

// TestCheckpointedGoldens is the byte-identity contract of checkpoint
// fast-forwarding: the full golden cross-product, run through a suite over
// an on-disk checkpoint store, must reproduce the committed golden
// fingerprints exactly — whether results come from cold runs that persist
// their milestones, then from a same-budget repeat that resumes each of
// them at the budget itself (pass one), from fast-forwarding over another
// budget's milestones (pass two), or from a store reopened over the same
// directory, as a later process sees it (pass three).
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
		// every spec it simulates resumes from its milestone at the budget.
		again := NewSuite(goldenBudget)
		again.Checkpoints = store
		var resumed int64
		again.Progress = func(line string) {
			if strings.HasSuffix(line, fmt.Sprintf("resumed at %d commits", goldenBudget)) {
				resumed++
			}
		}
		check(t, again, specs)
		if runs := again.SweepStats().Runs; runs == 0 || resumed != runs {
			t.Errorf("same-budget repeat resumed %d of its %d simulated specs at the budget", resumed, runs)
		}
	})

	t.Run("resume", func(t *testing.T) {
		// Populate the store at half the budget, then run the goldens: every
		// spec fast-forwards over the half-budget run's milestones and
		// simulates only the rest.
		store := openStore(t)
		populate(t, store, goldenBudget/2, specs)
		s := NewSuite(goldenBudget)
		s.Checkpoints = store
		check(t, s, specs)
		if st := store.Stats(); st.SnapshotHits == 0 {
			t.Error("resume pass never hit a milestone snapshot")
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

// TestCheckpointSharing pins the sharing a register-file sweep under a
// checkpoint store still gets: within the sweep, finished pressure-free runs
// answer their siblings; across budgets, a second suite over the same
// directory resumes every spec the first one simulated from that spec's own
// milestones. The second suite may answer some of those from a sibling
// instead; a spec the first one shared left no milestones, so the second
// starts it cold if it simulates it.
func TestCheckpointSharing(t *testing.T) {
	const budget = 4_096
	var specs []Spec
	for _, regs := range RegSizes {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			specs = append(specs, Spec{Bench: "compress", Width: 4, Queue: 32, Regs: regs, Model: model, Cache: cache.LockupFree})
		}
	}
	dir := t.TempDir()
	// sweep runs specs at the given budget through a suite over dir, and
	// returns it with the specs ("regs=N model") it simulated and resumed.
	sweep := func(budget int64) (s *Suite, ran, resumed map[string]bool) {
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s = NewSuite(budget)
		s.Jobs = 1 // trunk-first in a fixed order: the shared set is deterministic
		s.Checkpoints = store
		ran, resumed = make(map[string]bool), make(map[string]bool)
		s.Progress = func(line string) {
			f := strings.Fields(line)
			switch {
			case f[0] == "ran":
				ran[f[4]+" "+strings.Split(f[5], "/")[0]] = true
			case f[0] == "ckpt" && strings.Contains(line, "resumed at"):
				resumed[f[2]+" "+strings.TrimSuffix(f[3], ":")] = true
			}
		}
		if _, err := s.RunAll(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		return s, ran, resumed
	}

	first, ran1, _ := sweep(budget)
	if st := first.SweepStats(); st.Shared == 0 || st.Runs >= int64(len(specs)) {
		t.Errorf("sweep simulated %d and shared %d of %d specs; sibling sharing saved nothing", st.Runs, st.Shared, len(specs))
	}
	_, ran2, resumed := sweep(2 * budget)
	both := 0
	for spec := range ran2 {
		switch {
		case ran1[spec]:
			both++
			if !resumed[spec] {
				t.Errorf("%s: simulated at budget %d, but not resumed at budget %d", spec, budget, 2*budget)
			}
		case resumed[spec]:
			t.Errorf("%s: shared at budget %d, yet resumed at budget %d", spec, budget, 2*budget)
		}
	}
	if both == 0 {
		t.Error("no spec simulated at both budgets; the resume check would pass vacuously")
	}
	// The store writes milestone snapshots ("-s" entries) and nothing else.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasSuffix(path, "-s.json") {
			t.Errorf("checkpoint dir holds %s, which is not a milestone snapshot", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMilestoneKeyPinned pins exact-milestone keys to the values earlier
// builds derived: a change to the key material orphans every existing
// checkpoint directory, so it may only come with a version bump, which
// changes these pins on purpose.
func TestMilestoneKeyPinned(t *testing.T) {
	art, err := NewSuite(1).artifact("compress")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec Spec
		mi   int64
		want string
	}{
		{Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 64, Model: rename.Imprecise, Cache: cache.LockupFree, Budget: 50_000},
			32_768, "478078680446cb5b242b045e9a95a4cf9026571b5e77ff52814be9809b24edd7"},
		{Spec{Bench: "compress", Width: 4, Queue: 32, Regs: MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Track: true, Budget: 50_000},
			1_024, "2290760769cafc20ed603238733062e1cc0936b2c250e8cbbef5dacf3cfa78b1"},
	}
	for _, c := range cases {
		if got := milestoneExactKey(c.spec, art, c.mi); got != c.want {
			t.Errorf("%s at %d: key %s, want %s", goldenKey(c.spec), c.mi, got, c.want)
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
