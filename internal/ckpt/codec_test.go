package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"regsim/internal/core"
	"regsim/internal/mem"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

// fill sets every field reachable from v to a distinct non-zero value:
// integers count up from *n (odd ones negated, to exercise zigzag),
// unsigned values wrap within their width, bools are true, strings are
// non-empty, slices hold size elements, pointers are allocated. It fails on
// a field it cannot set, so an unexported snapshot field — which no codec
// could carry — fails too.
func fill(t *testing.T, v reflect.Value, path string, n *int64, size int) {
	t.Helper()
	if !v.CanSet() {
		t.Fatalf("%s cannot be set (unexported?)", path)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		x := *n
		if x%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		limit := uint64(1)<<(v.Type().Bits()-1) - 1
		v.SetUint(uint64(*n)%limit + 1)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), size, size)
		v.Set(s)
		for i := 0; i < s.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, size)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, size)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path, n, size)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, n, size)
		}
	default:
		t.Fatalf("%s has kind %s, which the filler (and likely the codec) does not handle", path, v.Kind())
	}
}

// filled returns a snapshot whose every field holds a distinct non-zero
// value counted up from first, with slices of size elements.
func filled(t *testing.T, first int64, size int) *core.Snapshot {
	var s core.Snapshot
	fill(t, reflect.ValueOf(&s).Elem(), "Snapshot", &first, size)
	return &s
}

// sparse clears part of a filled snapshot: some slices become nil, which
// is how a count of zero decodes, and some result histograms become empty
// but not nil, which the Result encoding keeps apart from nil.
func sparse(s *core.Snapshot) *core.Snapshot {
	s.ProgID = ""
	s.StoreQ, s.Buckets, s.Win.Uops, s.Win.ReadySeqs = nil, nil, nil, nil
	s.Ren.Kills, s.Ren.Files[0].FreeList, s.Ren.Files[1].Chains[3] = nil, nil, nil
	s.BP.Global, s.DC.Lines, s.DC.Arrivals, s.IC.Lines, s.Mem.Pages = nil, nil, nil, nil, nil
	s.Res.Live[0].Cum[0], s.Res.Ports[1].Writes = nil, nil
	s.Res.Live[0].Cum[1], s.Res.Ports[0].Reads = []int64{}, []int64{}
	return s
}

// decodeSnapshot decodes one encoded snapshot body into dst.
func decodeSnapshot(t *testing.T, body []byte, dst *core.Snapshot) {
	t.Helper()
	r := &reader{b: body}
	r.snapshot(dst)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.b) != 0 {
		t.Fatalf("%d bytes left after decoding", len(r.b))
	}
}

// TestCodecCarriesEveryField fills every field of every snapshot type with
// a distinct non-zero value and requires the codec to reproduce it exactly:
// a field added to any snapshot type but forgotten by the codec fails here.
// Decoding into a scratch graph that already holds another, larger
// snapshot must give the same graph as a fresh decode: a field the
// decoder fails to overwrite would keep the scratch's value. Nil and empty
// result histograms must stay distinct either way.
func TestCodecCarriesEveryField(t *testing.T) {
	for name, want := range map[string]*core.Snapshot{
		"filled": filled(t, 0, 2),
		"sparse": sparse(filled(t, 0, 2)),
	} {
		w := &writer{}
		w.snapshot(want)
		var fresh core.Snapshot
		decodeSnapshot(t, w.b, &fresh)
		if !reflect.DeepEqual(&fresh, want) {
			t.Errorf("%s: snapshot did not round-trip:\n got %+v\nwant %+v", name, &fresh, want)
		}
		scratch := filled(t, 1000, 3)
		decodeSnapshot(t, w.b, scratch)
		if !reflect.DeepEqual(scratch, &fresh) {
			t.Errorf("%s: decoding into a used scratch graph differs from a fresh decode:\n got %+v\nwant %+v", name, scratch, &fresh)
		}
	}
}

// artifactOf builds bench's program artifact.
func artifactOf(t testing.TB, bench string) *prog.Artifact {
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

// machineAt returns a machine over bench under cfg, run to commits, the
// artifact it runs, and its result so far.
func machineAt(t testing.TB, bench string, cfg core.Config, commits int64) (*core.Machine, *prog.Artifact, *core.Result) {
	t.Helper()
	art := artifactOf(t, bench)
	m, err := core.NewFromArtifact(cfg, art)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(commits)
	if err != nil {
		t.Fatal(err)
	}
	return m, art, res
}

// resultJSON is the canonical encoding byte identity is judged on.
func resultJSON(t testing.TB, r *core.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCaptureIntoUsedScratch: capturing into a graph that holds another
// state — arbitrary values, or an earlier capture of a different machine —
// must give the same graph as a fresh capture, and a resume from an entry
// decoded into a used graph must stay bit-identical to the cold run. One
// scratch graph serves every case in turn, as a worker's does.
func TestCaptureIntoUsedScratch(t *testing.T) {
	const warm, budget = 3_000, 6_000
	scratch := filled(t, 1000, 3)
	other := filled(t, 5000, 4)
	for _, c := range []struct {
		bench string
		model rename.Model
		track bool
	}{
		{"tomcatv", rename.Imprecise, false},
		{"compress", rename.Precise, false},
		{"compress", rename.Imprecise, true},
		{"gcc1", rename.Precise, false},
	} {
		name := fmt.Sprintf("%s/%s/track=%v", c.bench, c.model, c.track)
		cfg := core.DefaultConfig()
		cfg.Model, cfg.TrackLiveRegisters = c.model, c.track
		_, art, coldRes := machineAt(t, c.bench, cfg, budget)
		m, _, _ := machineAt(t, c.bench, cfg, warm)
		want, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SnapshotInto(scratch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scratch, want) {
			t.Errorf("%s: capture into a used scratch graph differs from a fresh capture", name)
		}
		data, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "k", Snap: scratch})
		if err != nil {
			t.Fatal(err)
		}
		e := Envelope{Snap: other}
		if err := decodeInto(data, &e); err != nil {
			t.Fatal(err)
		}
		resumed, err := core.Resume(cfg, art, e.Snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := resultJSON(t, got), resultJSON(t, coldRes); g != w {
			t.Errorf("%s: resume through used scratch graphs differs from the cold run\ncold:    %s\nresumed: %s", name, w, g)
		}
	}
}

// TestDecodeEveryStrictPrefixFails: no truncation of a valid entry decodes.
func TestDecodeEveryStrictPrefixFails(t *testing.T) {
	data, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: "a", Snap: testSnapshot(t)})
	if err != nil {
		t.Fatal(err)
	}
	for n := range data {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of %d decoded", n, len(data))
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHugeLengthPrefixRefusedBeforeAllocating: a count claiming 2^40
// elements is an error, and nothing near its size is allocated — at the
// envelope header, and at each kind of counted field.
func TestHugeLengthPrefixRefusedBeforeAllocating(t *testing.T) {
	const huge = 1 << 40
	header := binary.AppendUvarint(append([]byte(magic), FormatVersion), huge)
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := map[string]func() error{
		"envelope version": func() error { _, err := Decode(header); return err },
		"bytes": func() error {
			r := &reader{b: uv(huge)}
			r.bytes(nil)
			return r.err
		},
		"int64 slice": func() error {
			r := &reader{b: uv(huge)}
			r.int64s(nil)
			return r.err
		},
		"cache lines": func() error {
			r := &reader{b: uv(huge)}
			r.lines(nil)
			return r.err
		},
		"memory pages": func() error {
			r := &reader{b: uv(huge)}
			r.mem(new(mem.Snap))
			return r.err
		},
		"memory words": func() error {
			r := &reader{b: uv(1, 7, huge)}
			r.mem(new(mem.Snap))
			return r.err
		},
		"result": func() error {
			r := &reader{b: uv(huge)}
			r.result(new(core.Result))
			return r.err
		},
	}
	for name, decode := range cases {
		var err error
		if n := allocated(func() { err = decode() }); n > 1<<16 {
			t.Errorf("%s: allocated %d bytes for a hostile count", name, n)
		}
		if err == nil {
			t.Errorf("%s: hostile count accepted", name)
		}
	}
}

// format2Entry is the entry format revision 2 wrote for snap under key:
// this revision's layout with format 2 in the header and the Result as a
// length-prefixed JSON blob.
func format2Entry(t *testing.T, key string, snap *core.Snapshot) []byte {
	t.Helper()
	cur, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: key, Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := snap.Res.MarshalBinary()
	blob, err := json.Marshal(&snap.Res)
	if err != nil {
		t.Fatal(err)
	}
	// The format is one uvarint byte after the magic; the Result ends the
	// entry.
	resLen := len(binary.AppendUvarint(nil, uint64(len(res)))) + len(res)
	w := &writer{b: append([]byte(magic), 2)}
	w.b = append(w.b, cur[len(magic)+1:len(cur)-resLen]...)
	w.bytes(blob)
	return w.b
}

// TestDecodeStaleHeaders: entries that do not carry this format's header —
// the JSON envelopes of format 1, or another binary revision — fail with
// rescache.ErrStale, so the disk tier drops them quietly.
func TestDecodeStaleHeaders(t *testing.T) {
	for name, data := range map[string][]byte{
		"json":          []byte(`{"format":1,"version":"ckpt-1","kind":"snapshot","key":"a"}`),
		"older binary":  append([]byte(magic), 1),
		"format 2":      format2Entry(t, "a", testSnapshot(t)),
		"future binary": append([]byte(magic), FormatVersion+1),
	} {
		if _, err := Decode(data); !errors.Is(err, rescache.ErrStale) {
			t.Errorf("%s: Decode error %v, want ErrStale", name, err)
		}
	}
}

// checkStaleMiss plants data as an older build's entry for key k1 and
// requires it to read as a quiet miss that leaves the index, and the slot
// to heal on the next put.
func checkStaleMiss(t *testing.T, plant func(sk string) []byte) {
	t.Helper()
	snap := testSnapshot(t)
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, err := rescache.Open(s.disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	sk := diskKey("k1")
	if err := old.PutBytes(sk, plant(sk)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot("k1"); ok {
		t.Error("stale snapshot entry served as a hit")
	}
	for _, seg := range s.disk.Segments() {
		if seg.Live != 0 {
			t.Errorf("stale entry %s was not dropped from the index: segment %+v", sk, seg)
		}
	}
	if st := s.disk.Stats(); st.Errors != 0 || st.Misses != 1 {
		t.Errorf("disk tier stats %+v, want 1 quiet miss", st)
	}
	// The slot heals with an entry of this revision.
	if err := s.PutSnapshot("k1", snap); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenStore(s.disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Snapshot("k1"); !ok {
		t.Error("healed slot did not read back")
	}
}

// TestPlantedJSONEntryIsAStaleMiss: a store populated before the binary
// format holds JSON envelopes under the same keys. Reading one is a miss,
// not an error, and the key leaves the index so the slot heals.
func TestPlantedJSONEntryIsAStaleMiss(t *testing.T) {
	checkStaleMiss(t, func(sk string) []byte {
		// The format-1 layout: rescache's JSON envelope around a JSON ckpt
		// envelope.
		type jsonEnvelope struct {
			Format  int            `json:"format"`
			Version string         `json:"version"`
			Kind    Kind           `json:"kind"`
			Key     string         `json:"key"`
			Snap    *core.Snapshot `json:"snap,omitempty"`
		}
		type resultEnvelope struct {
			Format int             `json:"format"`
			Key    string          `json:"key"`
			Value  json.RawMessage `json:"value"`
		}
		inner, err := json.Marshal(jsonEnvelope{Format: 1, Version: Version, Kind: KindSnapshot, Key: sk, Snap: testSnapshot(t)})
		if err != nil {
			t.Fatal(err)
		}
		outer, err := json.Marshal(resultEnvelope{Format: 1, Key: sk, Value: inner})
		if err != nil {
			t.Fatal(err)
		}
		return outer
	})
}

// TestPlantedFormat2EntryIsAStaleMiss: a store written by format revision
// 2, which carried the Result as JSON, reads as quiet misses that heal.
func TestPlantedFormat2EntryIsAStaleMiss(t *testing.T) {
	checkStaleMiss(t, func(sk string) []byte { return format2Entry(t, sk, testSnapshot(t)) })
}

// TestEntryKeyMismatchIsCorrupt: a valid entry under the wrong path (a
// renamed or mis-copied file) is an error, not a hit.
func TestEntryKeyMismatchIsCorrupt(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(&Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot,
		Key: diskKey("other"), Snap: testSnapshot(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.disk.PutBytes(diskKey("k"), data); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot("k"); ok {
		t.Error("entry filed under the wrong key served as a hit")
	}
	if st := s.disk.Stats(); st.Errors != 1 {
		t.Errorf("disk tier stats %+v, want 1 error", st)
	}
}
