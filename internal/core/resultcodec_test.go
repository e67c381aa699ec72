package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/workload"
)

// fillResult sets every field reachable from v to a distinct value:
// integers count up (odd ones negated, to exercise zigzag), unsigned values
// count up from the top of their range (so varints take their longest
// form), bools are true, and slice number k is nil, empty or populated as
// (k+shape)%3 is 0, 1 or 2. It fails on a field it cannot set or a kind it
// does not know, so a field the codec could not carry fails too.
func fillResult(t *testing.T, v reflect.Value, path string, n *int64, slices *int, shape int) {
	t.Helper()
	if !v.CanSet() {
		t.Fatalf("%s cannot be set (unexported?)", path)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int64:
		*n++
		x := *n
		if x%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		*n++
		v.SetUint(^uint64(*n))
	case reflect.Slice:
		k := *slices
		*slices++
		switch (k + shape) % 3 {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), 3, 3)
			v.Set(s)
			for i := 0; i < s.Len(); i++ {
				fillResult(t, s.Index(i), fmt.Sprintf("%s[%d]", path, i), n, slices, shape)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillResult(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, slices, shape)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillResult(t, v.Field(i), path+"."+v.Type().Field(i).Name, n, slices, shape)
		}
	default:
		t.Fatalf("%s has kind %s, which the filler (and likely the codec) does not handle", path, v.Kind())
	}
}

// checkRoundTrip requires want to survive the binary codec exactly: an
// equal Result (nil and empty slices told apart), identical JSON, and the
// same bytes when the decoded Result is encoded again.
func checkRoundTrip(t *testing.T, name string, want *Result) {
	t.Helper()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	var got Result
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("%s: unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("%s: Result does not round-trip:\n got %+v\nwant %+v", name, got, *want)
	}
	gotJSON, _ := json.Marshal(&got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("%s: JSON changed by the round trip:\n got %s\nwant %s", name, gotJSON, wantJSON)
	}
	again, _ := got.MarshalBinary()
	if !bytes.Equal(again, data) {
		t.Errorf("%s: re-encoding a decoded Result changed its bytes", name)
	}
}

// TestResultCodecCarriesEveryField fills every field of a Result with a
// distinct value, each slice nil, empty or populated in turn, and requires
// the binary codec to reproduce it exactly: a field added to Result but not
// to the codec fails here.
func TestResultCodecCarriesEveryField(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		var want Result
		var n int64
		var slices int
		fillResult(t, reflect.ValueOf(&want).Elem(), "Result", &n, &slices, shape)
		checkRoundTrip(t, fmt.Sprintf("shape %d", shape), &want)
	}
}

// runResult simulates compress for a few thousand commits.
func runResult(t testing.TB, kind cache.Kind, track bool) *Result {
	t.Helper()
	p, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DCache = cfg.DCache.WithKind(kind)
	cfg.TrackLiveRegisters = track
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultCodecRealRuns round-trips the Results of tracked and untracked
// runs under all three cache organisations.
func TestResultCodecRealRuns(t *testing.T) {
	for _, kind := range []cache.Kind{cache.LockupFree, cache.Lockup, cache.Perfect} {
		for _, track := range []bool{false, true} {
			res := runResult(t, kind, track)
			if track && res.Live[0].TotalLive() == nil {
				t.Fatal("tracked run produced no live histograms; test would be vacuous")
			}
			checkRoundTrip(t, fmt.Sprintf("%s track=%v", kind, track), res)
		}
	}
}

// TestResultDecodeRejects: malformed encodings are errors that leave the
// receiver zero. The zero Result encodes as 38 zero bytes: 15 counters,
// Halted at offset 15, Checksum, 12 nil slice tags from offset 17, and 9
// cache counters.
func TestResultDecodeRejects(t *testing.T) {
	zero, _ := new(Result).MarshalBinary()
	if !bytes.Equal(zero, make([]byte, 38)) {
		t.Fatalf("zero Result encodes as %x", zero)
	}
	with := func(at int, b ...byte) []byte {
		return append(append(append([]byte(nil), zero[:at]...), b...), zero[at+1:]...)
	}
	good, _ := runResult(t, cache.LockupFree, true).MarshalBinary()
	for name, data := range map[string][]byte{
		"empty":               nil,
		"truncated":           good[:len(good)-1],
		"trailing bytes":      append(append([]byte(nil), good...), 0),
		"Halted byte 2":       with(15, 2),
		"non-minimal varint":  with(0, 0x80, 0x00),
		"overlong varint":     with(0, bytes.Repeat([]byte{0xff}, 10)...),
		"slice past the end":  with(17, 39),
		"hostile slice count": with(17, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20),
	} {
		r := Result{Cycles: 7}
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
		if !reflect.DeepEqual(r, Result{}) {
			t.Errorf("%s: a failed decode left %+v", name, r)
		}
	}
}

// allocated reports the bytes f allocates: the least of three runs, since
// the process-wide counter also sees other goroutines (the fuzzing
// engine's among them).
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzResultDecode: the decoder is total. Arbitrary bytes never panic and
// never make it allocate beyond the input (each count it accepts costs at
// least one input byte and becomes one 8-byte int64, doubled here for
// allocator size classes), and any input it accepts re-encodes to itself.
func FuzzResultDecode(f *testing.F) {
	for _, track := range []bool{false, true} {
		good, _ := runResult(f, cache.LockupFree, track).MarshalBinary()
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:len(good)-1])
		for _, at := range []int{0, len(good) / 3, len(good) - 1} {
			flipped := append([]byte(nil), good...)
			flipped[at] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := new(Result)
		var err error
		if n := allocated(func() { err = r.UnmarshalBinary(data) }); n > 16*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			if !reflect.DeepEqual(*r, Result{}) {
				t.Fatalf("a failed decode left %+v", *r)
			}
			return
		}
		again, _ := r.MarshalBinary()
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// BenchmarkResultDecode decodes an untracked run's Result from its binary
// encoding, as a result-cache hit does, and from its JSON, the wire format.
func BenchmarkResultDecode(b *testing.B) {
	res := runResult(b, cache.LockupFree, false)
	bin, _ := res.MarshalBinary()
	js, _ := json.Marshal(res)
	b.Run(fmt.Sprintf("binary/%dB", len(bin)), func(b *testing.B) {
		b.ReportAllocs()
		var r Result
		for i := 0; i < b.N; i++ {
			if err := r.UnmarshalBinary(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("json/%dB", len(js)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Result
			if err := json.Unmarshal(js, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
