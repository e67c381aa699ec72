package core

import (
	"encoding/json"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func buildArtifact(t *testing.T, bench string) *prog.Artifact {
	t.Helper()
	p, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	art, err := prog.NewArtifact(p)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// roundTrip pushes a snapshot through its JSON encoding, so the test covers
// a decoded copy and not just the in-memory structures. The checkpoint
// store's own binary codec gets the same resume check in
// verify.CheckpointRoundTrip.
func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out Snapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSnapshotResumeBitIdentical: warming a machine, snapshotting, JSON
// round-tripping, resuming, and finishing must produce a Result byte-equal
// to an uninterrupted cold run — for both exception models and with
// in-flight misses at the capture point (lockup-free cache keeps fills
// outstanding across the boundary).
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const warm, budget = 6_000, 20_000
	art := buildArtifact(t, "compress")
	for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
		for _, kind := range []cache.Kind{cache.LockupFree, cache.Lockup} {
			t.Run(model.String()+"/"+kind.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Model = model
				cfg.DCache = cfg.DCache.WithKind(kind)

				cold, err := NewFromArtifact(cfg, art)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cold.Run(budget)
				if err != nil {
					t.Fatal(err)
				}

				src, err := NewFromArtifact(cfg, art)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := src.Run(warm); err != nil {
					t.Fatal(err)
				}
				snap, err := src.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(cfg, art, roundTrip(t, snap))
				if err != nil {
					t.Fatal(err)
				}
				got, err := resumed.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
					t.Errorf("resumed result differs from cold run\ncold:    %s\nresumed: %s", w, g)
				}
			})
		}
	}
}

// TestPressureFreeRunServesSiblings pins, at the core, the rule the
// experiment layer's sibling sharing rests on (exper.servableShared): a
// 256-register run that never saw register pressure, with final watermarks
// wm, has the same Result as the cold run at every register-file size
// n ≥ max(wm)+2 under its own exception model, and — for a precise source —
// under the imprecise model too.
func TestPressureFreeRunServesSiblings(t *testing.T) {
	const budget = 20_000
	art := buildArtifact(t, "compress")
	run := func(t *testing.T, cfg Config) (*Machine, *Result) {
		t.Helper()
		m, err := NewFromArtifact(cfg, art)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
		t.Run(model.String(), func(t *testing.T) {
			srcCfg := DefaultConfig()
			srcCfg.Model = model
			srcCfg.RegsPerFile = 256
			src, srcRes := run(t, srcCfg)
			if !src.PressureFreeSoFar() {
				t.Fatal("256-register run saw register pressure; test premise broken")
			}
			wm := src.RegWatermarks()
			minRegs := max(wm[0], wm[1]) + 2
			targets := []rename.Model{model}
			if model == rename.Precise {
				targets = append(targets, rename.Imprecise)
			}
			served := 0
			// The paper's register-file axis, plus the smallest admitted size.
			for _, regs := range []int{minRegs, 32, 48, 64, 80, 96, 128, 160, 256} {
				if regs < minRegs || regs < rename.MinRegsPerFile {
					continue
				}
				for _, target := range targets {
					cfg := srcCfg
					cfg.RegsPerFile, cfg.Model = regs, target
					_, want := run(t, cfg)
					if g, w := resultJSON(t, srcRes), resultJSON(t, want); g != w {
						t.Errorf("regs=%d %s: the pressure-free source's result differs from the cold run\ncold:   %s\nsource: %s", regs, target, w, g)
					}
					served++
				}
			}
			if served == 0 {
				t.Fatalf("no target size clears watermarks %v; the test would pass vacuously", wm)
			}
		})
	}
}

// TestSnapshotRefusals pins the guard rails: hooked machines cannot
// snapshot, and resume rejects any config drift, register-file size
// included.
func TestSnapshotRefusals(t *testing.T) {
	art := buildArtifact(t, "compress")
	cfg := DefaultConfig()
	cfg.RegsPerFile = 256 // large enough that the warm-up is pressure-free
	m, err := NewFromArtifact(cfg, art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2_000); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	hooked := cfg
	hooked.Tracer = func(Event) {}
	hm, err := New(hooked, art.Program())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hm.Snapshot(); err == nil {
		t.Error("Snapshot accepted a machine with a tracer attached")
	}
	if _, err := Resume(hooked, art, snap); err == nil {
		t.Error("Resume accepted a config with a tracer attached")
	}

	drift := cfg
	drift.QueueSize *= 2
	if _, err := Resume(drift, art, snap); err == nil {
		t.Error("Resume accepted a queue-size mismatch")
	}

	if !m.PressureFreeSoFar() {
		t.Fatal("warm-up saw register pressure; the size check below needs a pressure-free source")
	}
	for _, regs := range []int{cfg.RegsPerFile / 2, cfg.RegsPerFile * 2} {
		resized := cfg
		resized.RegsPerFile = regs
		if _, err := Resume(resized, art, snap); err == nil {
			t.Errorf("Resume accepted a pressure-free %d-register snapshot at %d registers", cfg.RegsPerFile, regs)
		}
	}

	track := cfg
	track.TrackLiveRegisters = true
	if _, err := Resume(track, art, snap); err == nil {
		t.Error("Resume accepted a live-register-tracking mismatch")
	}

	// The never-allocated registers must form the free list's front prefix
	// in descending order: the sibling rule trusts a resumed run's
	// watermark because of it.
	bad := roundTrip(t, snap)
	fs := &bad.Ren.Files[0]
	if fs.N-1-int(fs.MaxPhys) < 2 {
		t.Fatalf("watermark %d leaves no untouched prefix to corrupt", fs.MaxPhys)
	}
	fs.FreeList[0], fs.FreeList[1] = fs.FreeList[1], fs.FreeList[0]
	if _, err := Resume(cfg, art, bad); err == nil {
		t.Error("Resume accepted a snapshot whose free list breaks the untouched-prefix invariant")
	}

	other := buildArtifact(t, "tomcatv")
	if _, err := Resume(cfg, other, snap); err == nil {
		t.Error("Resume accepted a snapshot from a different program")
	}
}
