package verify

import (
	"encoding/json"
	"fmt"

	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
)

// CheckpointRoundTrip is the fourth verification leg, covering checkpoint
// fast-forwarding: it runs cfg × p cold to budget, then again with a
// warm-up prefix that is snapshotted, encoded and decoded through
// ckpt.Encode/Decode (the checkpoint store's on-disk format), resumed, and
// run to the same budget — and requires the two Results to be byte-identical
// under their canonical JSON encoding (the encoding the result cache stores,
// so "equal" here means exactly what cache validity requires). Any field
// that drifts names a state component the snapshot or its codec fails to
// carry.
//
// warm selects the snapshot point in committed instructions; values outside
// (0, budget) default to budget/2. Configurations with per-event hooks
// attached cannot be snapshotted and are rejected by core.Snapshot itself.
func CheckpointRoundTrip(cfg core.Config, p *prog.Program, budget, warm int64) error {
	if warm <= 0 || warm >= budget {
		warm = budget / 2
	}
	art, err := prog.NewArtifact(p)
	if err != nil {
		return err
	}
	cold, err := core.NewFromArtifact(cfg, art)
	if err != nil {
		return err
	}
	want, err := cold.Run(budget)
	if err != nil {
		return err
	}

	src, err := core.NewFromArtifact(cfg, art)
	if err != nil {
		return err
	}
	if _, err := src.Run(warm); err != nil {
		return err
	}
	snap, err := src.Snapshot()
	if err != nil {
		return fmt.Errorf("verify: snapshot of %s at %d commits: %w", p.Name, warm, err)
	}
	blob, err := ckpt.Encode(&ckpt.Envelope{Format: ckpt.FormatVersion, Version: ckpt.Version,
		Kind: ckpt.KindSnapshot, Key: "verify", Snap: snap})
	if err != nil {
		return fmt.Errorf("verify: encode snapshot of %s: %w", p.Name, err)
	}
	restored, err := ckpt.Decode(blob)
	if err != nil {
		return fmt.Errorf("verify: decode snapshot of %s: %w", p.Name, err)
	}
	resumed, err := core.Resume(cfg, art, restored.Snap)
	if err != nil {
		return fmt.Errorf("verify: resume %s at %d commits: %w", p.Name, warm, err)
	}
	got, err := resumed.Run(budget)
	if err != nil {
		return err
	}

	gb, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(gb) != string(wb) {
		return &MismatchError{
			Program: p.Name, Cfg: cfg, Field: "checkpoint",
			Detail: fmt.Sprintf("resume after a %d-commit warm-up diverges from the cold run\n  cold:    %s\n  resumed: %s", warm, wb, gb),
		}
	}
	return nil
}
