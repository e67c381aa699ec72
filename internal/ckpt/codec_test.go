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
	"regsim/internal/sweep/rescache"
)

// fill sets every field reachable from v to a distinct non-zero value:
// integers count up (odd ones negated, to exercise zigzag), unsigned values
// wrap within their width, bools are true, strings and slices are non-empty,
// pointers are allocated. It fails on a field it cannot set, so an
// unexported snapshot field — which no codec could carry — fails too.
func fill(t *testing.T, v reflect.Value, path string, n *int64) {
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
		s := reflect.MakeSlice(v.Type(), 2, 2)
		v.Set(s)
		for i := 0; i < s.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path, n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, n)
		}
	default:
		t.Fatalf("%s has kind %s, which the filler (and likely the codec) does not handle", path, v.Kind())
	}
}

// TestCodecCarriesEveryField fills every field of every snapshot type with
// a distinct non-zero value and requires the codec to reproduce it exactly:
// a field added to any snapshot type but forgotten by the codec fails here.
func TestCodecCarriesEveryField(t *testing.T) {
	var n int64
	var want core.Snapshot
	fill(t, reflect.ValueOf(&want).Elem(), "Snapshot", &n)

	w := &writer{}
	w.snapshot(&want)
	r := &reader{b: w.b}
	got := r.snapshot()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.b) != 0 {
		t.Fatalf("%d bytes left after decoding", len(r.b))
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("snapshot did not round-trip:\n got %+v\nwant %+v", got, &want)
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
			r.bytes()
			return r.err
		},
		"int64 slice": func() error {
			r := &reader{b: uv(huge)}
			r.int64s()
			return r.err
		},
		"cache lines": func() error {
			r := &reader{b: uv(huge)}
			r.lines()
			return r.err
		},
		"memory pages": func() error {
			r := &reader{b: uv(huge)}
			r.mem()
			return r.err
		},
		"memory words": func() error {
			r := &reader{b: uv(1, 7, huge)}
			r.mem()
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
