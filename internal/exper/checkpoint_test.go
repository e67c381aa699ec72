package exper

import (
	"encoding/json"
	"os"
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

// TestCheckpointedGoldens is the byte-identity contract of checkpoint
// fast-forwarding: the full golden cross-product, run through a
// checkpoint-enabled suite, must reproduce the committed golden
// fingerprints exactly — whether results come from cold runs with capture
// (pass one), from fast-forwarding over another budget's milestone
// snapshots (pass two), or from snapshots that additionally round-tripped
// through the on-disk checkpoint encoding (pass three). Pass one also exercises
// cross-configuration sharing within the sweep itself (a precise
// pressure-free result serving its imprecise twin), since the cross-product
// runs both models over identical machines.
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
		s := NewSuite(goldenBudget)
		s.Checkpoints = ckpt.NewStore()
		check(t, s, specs)
	})

	t.Run("resume", func(t *testing.T) {
		// Populate the store at half the budget, then run the goldens: every
		// spec fast-forwards through the half-budget run's final milestone
		// and simulates only the second half.
		store := ckpt.NewStore()
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
		// A fresh store over the same directory has an empty memory map:
		// every snapshot it serves round-trips through the on-disk JSON.
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

// TestCheckpointSharing pins that the sweep actually shares work, not just
// that sharing is harmless: in a register-file sweep ordered large-to-small
// under one store, the later (smaller) configurations must be answered from
// shared entries rather than simulated cold.
func TestCheckpointSharing(t *testing.T) {
	store := ckpt.NewStore()
	s := NewSuite(4_096)
	s.Checkpoints = store
	for i := len(RegSizes) - 1; i >= 0; i-- {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			spec := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: RegSizes[i], Model: model, Cache: cache.LockupFree}
			if _, err := s.Run(spec); err != nil {
				t.Fatalf("regs=%d %s: %v", RegSizes[i], model, err)
			}
		}
	}
	st := store.Stats()
	if st.ResultHits == 0 {
		t.Errorf("no shared final-result hits across the register sweep (stats %+v)", st)
	}
	if got, n := s.sims.Load(), int64(2*len(RegSizes)); got >= n {
		t.Errorf("sweep simulated %d machines for %d specs; sharing saved nothing", got, n)
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
