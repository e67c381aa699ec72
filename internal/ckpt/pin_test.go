package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// TestEntryDigestsPinned pins the entry bytes: the SHA-256 of the encoded
// entry for a few fixed machine states (compress, 4-way, queue 32, 64
// registers, about 3000 commits). Existing checkpoint stores stay valid
// only while these hold, so a digest may change only together with
// FormatVersion. The digests were computed with the encoder that wrote the
// stores in use, before the codec learned to reuse its buffers.
func TestEntryDigestsPinned(t *testing.T) {
	p, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	art, err := prog.NewArtifact(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		model rename.Model
		track bool
		want  string
	}{
		{"precise", rename.Precise, false, "da7d82e00da13ea4d4319a807c25318b5c645ffaf5e103f1ea590be0e71e12de"},
		{"imprecise", rename.Imprecise, false, "5853cf8253576209b4ba0af25b8ca5a5fef722ed8f7e36d266966be317e30a7e"},
		{"precise-tracked", rename.Precise, true, "5ef1c0f231105ba56e0f3f94cc8e89abacefea2ae2942547f6b6bda73c867a7d"},
	} {
		cfg := core.DefaultConfig()
		cfg.RegsPerFile = 64
		cfg.Model = c.model
		cfg.TrackLiveRegisters = c.track
		m, err := core.NewFromArtifact(cfg, art)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(3_000); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "pin", Snap: snap})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: entry of %d bytes has digest %s, want %s", c.name, len(data), got, c.want)
		}
	}
}
