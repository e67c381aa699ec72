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

// TestSnapshotRetargetRegisters: a snapshot taken from a pressure-free run
// at a large register file must resume bit-identically at smaller files —
// including files small enough that the run develops pressure after the
// resume point, which must match the cold run's pressure exactly.
func TestSnapshotRetargetRegisters(t *testing.T) {
	const warm, budget = 4_000, 20_000
	art := buildArtifact(t, "compress")
	for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
		t.Run(model.String(), func(t *testing.T) {
			srcCfg := DefaultConfig()
			srcCfg.Model = model
			srcCfg.RegsPerFile = 256

			src, err := NewFromArtifact(srcCfg, art)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.Run(warm); err != nil {
				t.Fatal(err)
			}
			if !src.PressureFreeSoFar() {
				t.Fatalf("256-register warm-up saw register pressure; test premise broken")
			}
			wm := src.RegWatermarks()
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			minRegs := max(wm[0], wm[1]) + 2
			if minRegs < rename.MinRegsPerFile {
				minRegs = rename.MinRegsPerFile
			}
			for _, regs := range []int{minRegs, 48, 64, 128} {
				if regs < minRegs {
					continue
				}
				cfg := srcCfg
				cfg.RegsPerFile = regs

				cold, err := NewFromArtifact(cfg, art)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cold.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(cfg, art, roundTrip(t, snap))
				if err != nil {
					t.Fatalf("regs=%d: %v", regs, err)
				}
				got, err := resumed.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
					t.Errorf("regs=%d: retargeted resume differs from cold run\ncold:    %s\nresumed: %s", regs, w, g)
				}
			}
			// Below the watermark clearance the retarget must refuse.
			cfg := srcCfg
			cfg.RegsPerFile = rename.MinRegsPerFile
			if minRegs > rename.MinRegsPerFile {
				if _, err := Resume(cfg, art, snap); err == nil {
					t.Errorf("retarget to %d registers (watermarks %v) unexpectedly accepted", cfg.RegsPerFile, wm)
				}
			}
		})
	}
}

// TestSnapshotRefusals pins the guard rails: hooked machines cannot
// snapshot, and resume rejects config drift beyond the register file.
func TestSnapshotRefusals(t *testing.T) {
	art := buildArtifact(t, "compress")
	cfg := DefaultConfig()
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

	track := cfg
	track.TrackLiveRegisters = true
	track.RegsPerFile = 2048
	if _, err := Resume(track, art, snap); err == nil {
		t.Error("Resume accepted a cross-size retarget with live tracking enabled")
	}

	other := buildArtifact(t, "tomcatv")
	if _, err := Resume(cfg, other, snap); err == nil {
		t.Error("Resume accepted a snapshot from a different program")
	}
}
