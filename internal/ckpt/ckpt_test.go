package ckpt

import (
	"os"
	"reflect"
	"testing"

	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/workload"
)

func testSnapshot(t testing.TB) *core.Snapshot {
	t.Helper()
	p, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	art, err := prog.NewArtifact(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewFromArtifact(core.DefaultConfig(), art)
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
	return snap
}

func TestStoreRoundTrip(t *testing.T) {
	// Only the disk store is left; the subtest keeps the name it had when a
	// memory store ran beside it.
	t.Run("disk", func(t *testing.T) {
		snap := testSnapshot(t)
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Snapshot("k1"); ok {
			t.Fatal("empty store reported a snapshot hit")
		}
		if err := s.PutSnapshot("k1", snap); err != nil {
			t.Fatal(err)
		}
		// A second store over the same directory — another process — sees the
		// entry, round-tripped through the codec.
		s2, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*Store{s, s2} {
			got, ok := st.Snapshot("k1")
			if !ok {
				t.Fatal("stored snapshot missing")
			}
			if !reflect.DeepEqual(got, snap) {
				t.Error("snapshot did not round-trip")
			}
		}
		if st := s.Stats(); st != (Stats{SnapshotHits: 1, SnapshotMisses: 1}) {
			t.Errorf("stats %+v, want 1 hit and 1 miss", st)
		}
		// Values stay on disk; the index holds only their locations. Once
		// the directory is gone, a fresh store misses, and the open store's
		// next refresh (on a miss) drops the vanished segment.
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		fresh, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Snapshot("k1"); ok {
			t.Error("a fresh store served an entry whose directory was removed")
		}
		if _, ok := s.Snapshot("k2"); ok {
			t.Fatal("hit on a key never stored")
		}
		if _, ok := s.Snapshot("k1"); ok {
			t.Error("entry served after its segment was removed: the refresh kept it")
		}
	})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	e := &Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: snap}
	data, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, e) {
		t.Error("envelope did not round-trip")
	}
	again, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("re-encoding a decoded envelope changed its bytes")
	}
}

func TestDecodeRejects(t *testing.T) {
	snap := testSnapshot(t)
	good, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	// header builds an entry prefix: magic, format, version, key, kind byte.
	header := func(version, key string, kind byte) []byte {
		w := &writer{b: []byte(magic)}
		w.uint(FormatVersion)
		w.str(version)
		w.str(key)
		w.u8(kind)
		return w.b
	}
	body := good[len(header(Version, "a", wireSnapshot)):]
	cases := map[string][]byte{
		"empty":          nil,
		"json":           []byte(`{"format":1,"version":"` + Version + `","kind":"snapshot","key":"a"}`),
		"magic only":     []byte(magic),
		"wrong version":  append(header("ckpt-0", "a", wireSnapshot), body...),
		"no key":         append(header(Version, "", wireSnapshot), body...),
		"bad kind":       append(header(Version, "a", 9), body...),
		"result kind":    append(header(Version, "a", 2), body...),
		"empty body":     header(Version, "a", wireSnapshot),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
	if _, err := Decode(good); err != nil {
		t.Errorf("Decode rejected a valid envelope: %v", err)
	}
}

// legacyResultEntry is a finished-result entry (wire kind 2) exactly as the
// store wrote it before it kept only milestone snapshots: a 1000-commit
// Result with watermarks [40 35], pressure-free, precise. Such entries
// remain in checkpoint directories of format revision 2.
const legacyResultEntry = "RSCK\x02\x06ckpt-1\x03k-r\x02\xd5\x04{\"Cycles\":800,\"Committed\":1000,\"Issued\":0,\"IssuedLoads\":0,\"IssuedStores\":0,\"IssuedCondBr\":0,\"CommittedLoads\":0,\"CommittedCondBr\":0,\"LoadMisses\":0,\"ForwardedLoads\":0,\"Mispredicts\":0,\"NoFreeRegCycles\":0,\"DispatchRegStalls\":0,\"DispatchQueueFullStalls\":0,\"WriteBufferStalls\":0,\"Halted\":false,\"Checksum\":0,\"Live\":[{\"Cum\":[null,null,null,null]},{\"Cum\":[null,null,null,null]}],\"Ports\":[{\"Reads\":null,\"Writes\":null},{\"Reads\":null,\"Writes\":null}],\"DCache\":{\"LoadAccesses\":0,\"LoadMisses\":0,\"StoreProbes\":0,\"StoreHits\":0,\"FillsStarted\":0,\"FillsMerged\":0,\"FillsDropped\":0},\"ICacheAccesses\":0,\"ICacheMisses\":0}PF\x01\aprecise"

// TestLegacyResultEntryRejected: a result entry left by an older store
// decodes as an error, so it can never be mistaken for a snapshot.
func TestLegacyResultEntryRejected(t *testing.T) {
	if _, err := Decode([]byte(legacyResultEntry)); err == nil {
		t.Fatal("Decode accepted a result entry (wire kind 2)")
	}
}

func TestMilestones(t *testing.T) {
	cases := []struct {
		budget int64
		want   []int64
	}{
		{500, []int64{500}},
		{1024, []int64{1024}},
		{3000, []int64{1024, 2048, 3000}},
		{8000, []int64{1024, 2048, 4096, 8000}},
		{50000, []int64{1024, 2048, 4096, 8192, 16384, 32768, 50000}},
	}
	for _, c := range cases {
		if got := Milestones(c.budget); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Milestones(%d) = %v, want %v", c.budget, got, c.want)
		}
	}
}
