package ckpt

import (
	"bytes"
	"reflect"
	"testing"

	"regsim/internal/core"
	"regsim/internal/rename"
)

// FuzzCheckpointDecode: Decode must be total — any byte sequence either
// parses into a fully validated envelope or returns an error; it may never
// panic. A hostile or bit-rotted checkpoint file must read as a cache miss,
// not a crash, because the store heals misses by re-simulating. Each input
// is also decoded into the scratch envelope the previous input left dirty,
// as the store's reuse path does, and must give what Decode gives.
func FuzzCheckpointDecode(f *testing.F) {
	// Genuine binary entries as the structured seeds, so the engine mutates
	// from deep valid snapshots, and valid inputs follow valid ones.
	good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "seed", Snap: testSnapshot(f)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	cfg := core.DefaultConfig()
	cfg.Model = rename.Imprecise
	m, _, _ := machineAt(f, "tomcatv", cfg, 2_000)
	deeper, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	other, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "other", Snap: deeper})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(other)
	f.Add(good)
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), FormatVersion))

	// Hostile inputs: a result entry format-2 stores hold, the format-1
	// JSON layout a pre-binary store holds, and plain garbage.
	f.Add([]byte(legacyResultEntry))
	f.Add([]byte{})
	f.Add([]byte("{"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":1,"version":"ckpt-1","kind":"snapshot","key":"a"}`))
	f.Add([]byte(`{"format":1,"version":"ckpt-1","kind":"result","key":"a","result":{},"meta":{"watermark":[30,30]}}`))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	var scratch Envelope
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err == nil && e.Validate() != nil {
			t.Fatal("Decode returned nil error for an envelope that fails Validate")
		}
		serr := decodeInto(data, &scratch)
		switch {
		case (err == nil) != (serr == nil):
			t.Fatalf("Decode error %v, but decoding into a used scratch gave %v", err, serr)
		case err == nil && !reflect.DeepEqual(&scratch, e):
			t.Fatal("decoding into a used scratch envelope differs from Decode")
		}
	})
}
