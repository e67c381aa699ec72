package ckpt

import (
	"reflect"
	"testing"

	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/workload"
)

func testSnapshot(t testing.TB) (*core.Snapshot, *core.Result) {
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
	res, err := m.Run(3_000)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, res
}

func TestStoreRoundTrip(t *testing.T) {
	snap, res := testSnapshot(t)
	meta := ResultMeta{Watermark: [2]int{40, 35}, PressureFree: true, Model: "precise"}

	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			var s *Store
			var err error
			if disk {
				s, err = OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStore()
			}
			if _, ok := s.Snapshot("k1"); ok {
				t.Fatal("empty store reported a snapshot hit")
			}
			if err := s.PutSnapshot("k1", snap); err != nil {
				t.Fatal(err)
			}
			if err := s.PutResult("k2", res, meta); err != nil {
				t.Fatal(err)
			}

			stores := []*Store{s}
			if disk {
				// A second store over the same directory must see the
				// persisted entries (and round-trip them through the codec).
				s2, err := OpenStore(s.Dir())
				if err != nil {
					t.Fatal(err)
				}
				stores = append(stores, s2)
			}
			for _, st := range stores {
				got, ok := st.Snapshot("k1")
				if !ok {
					t.Fatal("stored snapshot missing")
				}
				if !reflect.DeepEqual(got, snap) {
					t.Error("snapshot did not round-trip")
				}
				gotRes, gotMeta, ok := st.Result("k2")
				if !ok {
					t.Fatal("stored result missing")
				}
				if !reflect.DeepEqual(gotMeta, meta) {
					t.Errorf("meta round-trip: got %+v, want %+v", gotMeta, meta)
				}
				if !reflect.DeepEqual(gotRes, res) {
					t.Error("result did not round-trip")
				}
				// Served results must not alias each other.
				again, _, _ := st.Result("k2")
				if again == gotRes {
					t.Error("Result returned the same pointer twice")
				}
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap, res := testSnapshot(t)
	for _, e := range []*Envelope{
		{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: snap},
		{Format: FormatVersion, Version: Version, Kind: KindResult, Key: "b", Result: res,
			Meta: &ResultMeta{Watermark: [2]int{30, 30}, Model: "imprecise"}},
	} {
		data, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Errorf("%s envelope did not round-trip", e.Kind)
		}
		again, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Errorf("re-encoding a decoded %s envelope changed its bytes", e.Kind)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	snap, _ := testSnapshot(t)
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
	cases := map[string][]byte{
		"empty":          nil,
		"json":           []byte(`{"format":1,"version":"` + Version + `","kind":"snapshot","key":"a"}`),
		"magic only":     []byte(magic),
		"wrong version":  append(header("ckpt-0", "a", wireSnapshot), good[len(header(Version, "a", wireSnapshot)):]...),
		"no key":         append(header(Version, "", wireSnapshot), good[len(header(Version, "a", wireSnapshot)):]...),
		"bad kind":       append(header(Version, "a", 9), good[len(header(Version, "a", wireSnapshot)):]...),
		"empty body":     header(Version, "a", wireSnapshot),
		"empty result":   header(Version, "a", wireResult),
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
