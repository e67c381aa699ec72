package exper

import (
	"bytes"
	"encoding/json"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

// fingerprintMat and ckptKeyMat are the structs whose JSON encodings the
// result cache's and the checkpoint store's keys were first defined as.
// The key writers must reproduce those bytes exactly, or every existing
// store directory is orphaned.
type fingerprintMat struct {
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

type ckptKeyMat struct {
	Kind     string `json:"kind"`
	Sim      string `json:"sim"`
	Workload string `json:"workload"`
	Prog     string `json:"prog"`
	Ckpt     string `json:"ckpt"`
	Snap     string `json:"snap"`
	ProgID   string `json:"progID"`
	Width    int    `json:"width"`
	Queue    int    `json:"queue"`
	Model    string `json:"model,omitempty"`
	Cache    string `json:"cache"`
	Track    bool   `json:"track,omitempty"`
	Regs     int    `json:"regs,omitempty"`
}

func fingerprintMatOf(spec Spec) fingerprintMat {
	return fingerprintMat{
		Sim: core.Version, Workload: workload.Version, Prog: prog.ArtifactVersion, Ckpt: ckpt.Version,
		Bench: spec.Bench, Width: spec.Width, Queue: spec.Queue, Regs: spec.Regs,
		Model: spec.Model.String(), Cache: spec.Cache.String(), Track: spec.Track, Budget: spec.Budget,
	}
}

func ckptKeyMatOf(spec Spec, progID string) ckptKeyMat {
	return ckptKeyMat{
		Kind: "deepest",
		Sim:  core.Version, Workload: workload.Version, Prog: prog.ArtifactVersion, Ckpt: ckpt.Version,
		Snap: core.SnapVersion, ProgID: progID, Width: spec.Width, Queue: spec.Queue,
		Model: spec.Model.String(), Cache: spec.Cache.String(), Track: spec.Track, Regs: spec.Regs,
	}
}

// checkKeys fails the test unless both key writers write the JSON encoding
// of spec's key material and derive the key rescache.Fingerprint derives
// from it.
func checkKeys(t testing.TB, spec Spec, progID string) {
	t.Helper()
	for _, c := range []struct {
		name  string
		write func(w *rescache.KeyWriter)
		mat   any
	}{
		{"fingerprint", func(w *rescache.KeyWriter) { writeFingerprint(w, spec) }, fingerprintMatOf(spec)},
		{"checkpoint key", func(w *rescache.KeyWriter) { writeConfigKey(w, spec, progID) }, ckptKeyMatOf(spec, progID)},
	} {
		var w rescache.KeyWriter
		c.write(&w)
		want, err := json.Marshal(c.mat)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Preimage(); !bytes.Equal(got, want) {
			t.Fatalf("%s preimage of %+v:\n got  %s\n want %s", c.name, spec, got, want)
		}
		if got, want := w.Key(), rescache.Fingerprint(c.mat); got != want {
			t.Fatalf("%s of %+v is %s, want %s", c.name, spec, got, want)
		}
	}
}

// figureSpecs runs every experiment that goes through the suite at a
// one-commit budget and returns the specs its table then holds: every spec
// a figure asks for.
func figureSpecs(t *testing.T, s *Suite) []Spec {
	t.Helper()
	f3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := s.Fig10(f6)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func() error{
		func() (err error) { _, err = s.Table1(); return },
		func() (err error) { _, err = s.Fig4(); return },
		func() (err error) { _, err = s.Fig5(); return },
		func() (err error) { _, err = s.Fig7(); return },
		func() (err error) { _, err = s.Fig8(); return },
		func() (err error) { _, err = s.Findings(f3, f6, f10); return },
		func() (err error) { _, err = s.RegReq(); return },
		func() (err error) { _, err = s.Ports(); return },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	s.table.mu.Lock()
	defer s.table.mu.Unlock()
	specs := make([]Spec, 0, len(s.table.entries))
	for spec := range s.table.entries {
		specs = append(specs, spec)
	}
	return specs
}

// servingSpecs is the benchmark harness's serving space: every benchmark,
// both widths, Fig. 3's queue axis, register files from 32 to 256 in steps
// of 8, both exception models and all three caches, at a 30000 budget.
func servingSpecs() []Spec {
	var specs []Spec
	for _, bench := range workload.Names() {
		for _, width := range Widths {
			for _, queue := range QueueSizes {
				for regs := 32; regs <= 256; regs += 8 {
					for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
						for _, kind := range []cache.Kind{cache.LockupFree, cache.Lockup, cache.Perfect} {
							specs = append(specs, Spec{Bench: bench, Width: width, Queue: queue,
								Regs: regs, Model: model, Cache: kind, Budget: 30_000})
						}
					}
				}
			}
		}
	}
	return specs
}

// TestKeyPreimagesMatchJSON: for every spec a figure asks for, every spec of
// the benchmark harness's 18,792-spec serving space, and the sibling group
// the router keys each by, the key writers write exactly the JSON the keys
// were defined as.
func TestKeyPreimagesMatchJSON(t *testing.T) {
	s := NewSuite(1)
	figures := figureSpecs(t, s)
	serving := servingSpecs()
	if len(serving) != 18_792 {
		t.Fatalf("%d serving specs, want 18792", len(serving))
	}
	for _, spec := range append(figures, serving...) {
		art, err := s.artifact(spec.Bench)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, spec, art.ID())
		checkKeys(t, SiblingGroup(spec), art.ID())
	}
	t.Logf("%d figure specs and %d serving specs", len(figures), len(serving))
}

// FuzzFingerprint: whatever a spec's benchmark name holds (it comes from
// request bodies), the key writers write exactly the JSON the keys were
// defined as, so a name that needs escaping, or is not UTF-8, keys what it
// always keyed. The name stands in for the artifact ID too.
func FuzzFingerprint(f *testing.F) {
	for _, bench := range []string{
		"compress", "", `q"uote`, `back\slash`, "<script>&amp;", "line\u2028para\u2029",
		"nul\x00ctl\x01\x1f\b\f\n\r\t\x7f", "bad\xffutf8\xc3", "\xe2\x80", "é✓𝄞", "\ufffd",
	} {
		f.Add(bench, int64(50_000))
	}
	f.Fuzz(func(t *testing.T, bench string, budget int64) {
		spec := Spec{Bench: bench, Width: 4, Queue: 32, Regs: 64, Model: rename.Imprecise, Cache: cache.Lockup, Budget: budget}
		checkKeys(t, spec, bench)
	})
}

var benchKey string

// BenchmarkFingerprint times one result-cache key of a Fig. 6 spec, written
// by the key writer and, for comparison, by json.Marshal of the struct the
// key was first defined as.
func BenchmarkFingerprint(b *testing.B) {
	spec := Spec{Bench: "compress", Width: 4, Queue: 32, Regs: 64, Model: rename.Imprecise, Cache: cache.LockupFree, Budget: 50_000}
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchKey = fingerprint(spec)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchKey = rescache.Fingerprint(fingerprintMatOf(spec))
		}
	})
}
