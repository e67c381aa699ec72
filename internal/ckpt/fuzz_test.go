package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode: Decode must be total — any byte sequence either
// parses into a fully validated envelope or returns an error; it may never
// panic. A hostile or bit-rotted checkpoint file must read as a cache miss,
// not a crash, because the store heals misses by re-simulating.
func FuzzCheckpointDecode(f *testing.F) {
	// A genuine binary entry as the structured seed, so the engine mutates
	// from a deep valid snapshot.
	good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "seed", Snap: testSnapshot(f)})
	if err != nil {
		f.Fatal(err)
	}
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

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err == nil && e.Validate() != nil {
			t.Fatal("Decode returned nil error for an envelope that fails Validate")
		}
	})
}
