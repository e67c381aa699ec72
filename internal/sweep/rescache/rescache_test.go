package rescache

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"regsim/internal/core"
)

type payload struct {
	Name   string
	Cycles int64
	Hist   []int64
}

// MarshalBinary encodes p as its length-prefixed name (so a flipped byte in
// the name leaves the payload decodable), its cycles as a varint, and its
// histogram as a count and varints.
func (p payload) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(p.Name)))
	b = binary.AppendVarint(append(b, p.Name...), p.Cycles)
	b = binary.AppendUvarint(b, uint64(len(p.Hist)))
	for _, v := range p.Hist {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

var errPayload = errors.New("malformed payload")

// UnmarshalBinary decodes MarshalBinary's encoding.
func (p *payload) UnmarshalBinary(b []byte) error {
	*p = payload{}
	name, n := binary.Uvarint(b)
	if n <= 0 || name > uint64(len(b)-n) {
		return errPayload
	}
	p.Name, b = string(b[n:n+int(name)]), b[n+int(name):]
	if p.Cycles, n = binary.Varint(b); n <= 0 {
		return errPayload
	}
	b = b[n:]
	words, n := binary.Uvarint(b)
	if n <= 0 || words > uint64(len(b)-n) {
		return errPayload
	}
	if b = b[n:]; words > 0 {
		p.Hist = make([]int64, words)
	}
	for i := range p.Hist {
		if p.Hist[i], n = binary.Varint(b); n <= 0 {
			return errPayload
		}
		b = b[n:]
	}
	if len(b) != 0 {
		return errPayload
	}
	return nil
}

// envelope lays out, by hand, the entry Put writes for key around val under
// the given format revision.
func envelope(format uint64, key string, val []byte) []byte {
	b := binary.AppendUvarint([]byte(envelopeMagic), format)
	b = binary.AppendUvarint(b, uint64(len(key)))
	return append(append(b, key...), val...)
}

// encoded returns v's binary encoding.
func encoded(t testing.TB, v encoding.BinaryMarshaler) []byte {
	t.Helper()
	b, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopen returns a fresh store over s's directory, as another process sees
// it.
func reopen(t testing.TB, s *Store) *Store {
	t.Helper()
	fresh, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// record is one complete record as a segment file holds it.
type record struct {
	off  int64
	key  string
	data []byte
}

// segmentFiles lists the segment files in dir, oldest first.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		if _, ok := segmentStamp(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths
}

// readRecords parses the complete records at the head of a segment file.
func readRecords(t testing.TB, path string) []record {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for off := 0; ; {
		klen, dlen, ok := parseHeader(b[off:])
		end := off + headerLen + int(klen) + int(dlen)
		if !ok || end > len(b) {
			return recs
		}
		recs = append(recs, record{int64(off), string(b[off+headerLen : off+headerLen+int(klen)]), b[off+headerLen+int(klen) : end]})
		off = end
	}
}

// onlyRecord returns the single record in the store's directory.
func onlyRecord(t *testing.T, s *Store) record {
	t.Helper()
	segs := segmentFiles(t, s.Dir())
	if len(segs) != 1 {
		t.Fatalf("%d segments in %s, want 1", len(segs), s.Dir())
	}
	recs := readRecords(t, segs[0])
	if len(recs) != 1 {
		t.Fatalf("%d records in %s, want 1", len(recs), segs[0])
	}
	return recs[0]
}

// indexed reports whether the store's index holds key.
func indexed(s *Store, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t)
	in := payload{Name: "espresso", Cycles: 123456, Hist: []int64{1, 0, 7}}
	key := Fingerprint(in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Get(key, &out) {
		t.Fatal("entry not found after Put")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: put %+v, got %+v", in, out)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 hit", st)
	}
}

// TestValuesSurviveBufferReuse: reads go through pooled buffers and puts
// through the store's record buffer, and later calls reuse both. Values Get
// decoded, and bytes a GetBytes decoder copied out, must stay intact across
// later reads and puts of other entries, larger and smaller.
func TestValuesSurviveBufferReuse(t *testing.T) {
	s := testStore(t)
	var keys []string
	var want []payload
	for i := range 6 {
		p := payload{Name: strings.Repeat(string(rune('a'+i)), 10+997*(i%3)), Cycles: int64(i)}
		for j := range 50 * i {
			p.Hist = append(p.Hist, int64(j*i))
		}
		keys, want = append(keys, Fingerprint(p)), append(want, p)
		if err := s.Put(keys[i], p); err != nil {
			t.Fatal(err)
		}
	}
	res := core.Result{Cycles: 9, Committed: 7}
	res.Live[0].Cum[2] = []int64{4, 0, 5}
	if err := s.Put("result", &res); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Repeat([]byte{0xab}, 3000)
	if err := s.PutBytes("raw", raw); err != nil {
		t.Fatal(err)
	}
	got := make([]payload, len(keys))
	var gotRes core.Result
	var gotRaw []byte
	for i, key := range keys {
		if !s.Get(key, &got[i]) {
			t.Fatalf("entry %d did not read back", i)
		}
		if i == 2 && !s.Get("result", &gotRes) {
			t.Fatal("result did not read back")
		}
		if i == 3 && !s.GetBytes("raw", func(data []byte) error { gotRaw = append([]byte(nil), data...); return nil }) {
			t.Fatal("raw entry did not read back")
		}
		churn := payload{Name: strings.Repeat("z", 5000-700*i)}
		if err := s.Put(Fingerprint(churn), churn); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		var p payload
		s.Get(key, &p) // reuses the read buffers once more
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("values Get returned changed when later calls reused the buffers")
	}
	if !reflect.DeepEqual(gotRes, res) {
		t.Errorf("the Result Get returned changed: %+v, want %+v", gotRes, res)
	}
	if !bytes.Equal(gotRaw, raw) {
		t.Error("bytes copied out of GetBytes changed")
	}
}

func TestMiss(t *testing.T) {
	s := testStore(t)
	var out payload
	if s.Get(Fingerprint("absent"), &out) {
		t.Error("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want a clean miss", st)
	}
}

// TestCorruptEntryIsAMissAndRemoved: a defective entry reads as a miss with
// one error tick and leaves the index, the store's other entries still hit,
// and a put heals the key. The defects are payloads the decoder rejects,
// planted as records, and bytes flipped on disk in a record's data, key and
// CRC.
func TestCorruptEntryIsAMissAndRemoved(t *testing.T) {
	// planted files a payload the decoder rejects as the key's newest
	// record.
	planted := func(garbage func(key string) []byte) func(s *Store, key string) {
		return func(s *Store, key string) {
			if err := s.PutBytes(key, garbage(key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := encoded(t, payload{Name: "victim", Cycles: 2})
	// flip changes one byte of the key's record on disk, at an offset into
	// the record chosen from its data; a flip in the data keeps the payload
	// decodable, so only the record checks can catch it.
	flip := func(at func(r record) int64) func(s *Store, key string) {
		return func(s *Store, key string) {
			seg := segmentFiles(t, s.Dir())[0]
			for _, r := range readRecords(t, seg) {
				if r.key != key {
					continue
				}
				f, err := os.OpenFile(seg, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var b [1]byte
				if _, err := f.ReadAt(b[:], r.off+at(r)); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x01
				if _, err := f.WriteAt(b[:], r.off+at(r)); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Fatalf("no record for %s", key)
		}
	}
	for name, corrupt := range map[string]func(s *Store, key string){
		"truncated": planted(func(key string) []byte {
			e := envelope(FormatVersion, key, victim)
			return e[:len(e)-1]
		}),
		"garbage": planted(func(string) []byte { return []byte("\x00\x01not an envelope at all") }),
		"wrongKey": planted(func(string) []byte {
			return envelope(FormatVersion, Fingerprint("another entry"), victim)
		}),
		// "victim" → "vicuim" in the Name field.
		"data": flip(func(r record) int64 {
			return headerLen + int64(len(r.key)+bytes.Index(r.data, []byte("victim"))+3)
		}),
		"key": flip(func(r record) int64 { return headerLen + 5 }),
		"crc": flip(func(record) int64 { return 12 }),
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			entries := []payload{{Name: "a", Cycles: 1}, {Name: "victim", Cycles: 2}, {Name: "c", Cycles: 3}}
			keys := make([]string, len(entries))
			for i, in := range entries {
				keys[i] = Fingerprint(in)
				if err := s.Put(keys[i], in); err != nil {
					t.Fatal(err)
				}
			}
			corrupt(s, keys[1])
			var out payload
			if s.Get(keys[1], &out) {
				t.Fatalf("corrupt entry served as a hit: %+v", out)
			}
			st := s.Stats()
			if st.Errors != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 error + 1 miss", st)
			}
			if indexed(s, keys[1]) {
				t.Error("corrupt entry was not dropped from the index")
			}
			for _, i := range []int{0, 2} {
				if !s.Get(keys[i], &out) || !reflect.DeepEqual(out, entries[i]) {
					t.Errorf("intact entry %d did not read back: %+v", i, out)
				}
			}
			// The slot heals: a fresh Put then hits, here and in a fresh store.
			if err := s.Put(keys[1], entries[1]); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*Store{s, reopen(t, s)} {
				if !st.Get(keys[1], &out) || !reflect.DeepEqual(out, entries[1]) {
					t.Error("healed slot did not round-trip")
				}
			}
		})
	}
}

// TestFormatVersionMismatchIsAQuietMiss: an entry of another envelope
// revision, binary or the JSON of format 1, reads as a quiet miss, leaves
// the index, and heals on the next put.
func TestFormatVersionMismatchIsAQuietMiss(t *testing.T) {
	in := payload{Name: "x"}
	key := Fingerprint(in)
	for name, stale := range map[string][]byte{
		"next revision": envelope(FormatVersion+1, key, encoded(t, in)),
		"format-1 JSON": []byte(`{"format":1,"key":"` + key + `","value":{"Name":"x","Cycles":0,"Hist":null}}`),
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			if err := s.PutBytes(key, stale); err != nil {
				t.Fatal(err)
			}
			var out payload
			if s.Get(key, &out) {
				t.Fatal("stale-format entry served as a hit")
			}
			if st := s.Stats(); st.Errors != 0 || st.Misses != 1 {
				t.Errorf("stats = %+v, want a quiet miss (no error)", st)
			}
			if indexed(s, key) {
				t.Error("stale entry was not dropped from the index")
			}
			if err := s.Put(key, in); err != nil {
				t.Fatal(err)
			}
			if !reopen(t, s).Get(key, &out) || !reflect.DeepEqual(out, in) {
				t.Errorf("healed slot read back as %+v", out)
			}
		})
	}
}

func TestGetBytesStaleVersusCorrupt(t *testing.T) {
	for name, c := range map[string]struct {
		err    error
		errors int64
	}{
		"stale":   {fmt.Errorf("old header: %w", ErrStale), 0},
		"corrupt": {errors.New("bad length prefix"), 1},
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			key := Fingerprint(name)
			if err := s.PutBytes(key, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if s.GetBytes(key, func([]byte) error { return c.err }) {
				t.Fatal("rejected entry served as a hit")
			}
			if st := s.Stats(); st.Errors != c.errors || st.Misses != 1 {
				t.Errorf("stats = %+v, want %d errors + 1 miss", st, c.errors)
			}
			if indexed(s, key) {
				t.Error("rejected entry was not dropped from the index")
			}
		})
	}
	s := testStore(t)
	key := Fingerprint("raw")
	if err := s.PutBytes(key, []byte("raw bytes")); err != nil {
		t.Fatal(err)
	}
	var got string
	if !s.GetBytes(key, func(data []byte) error { got = string(data); return nil }) || got != "raw bytes" {
		t.Errorf("raw round trip: got %q", got)
	}
}

func TestValueTypeMismatchIsCorruption(t *testing.T) {
	s := testStore(t)
	key := Fingerprint("k")
	if err := s.Put(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var wrong core.Result // a payload's bytes are too short for a Result
	if s.Get(key, &wrong) {
		t.Fatal("mismatched value type served as a hit")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 error", st)
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	// A path under a regular file can never become a directory.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub")); err == nil {
		t.Error("Open under a regular file succeeded")
	}
}

// TestNoStrayTempFiles: the directory holds segments and nothing else — no
// temp files, no shard directories.
func TestNoStrayTempFiles(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 10; i++ {
		in := payload{Cycles: int64(i)}
		if err := s.Put(Fingerprint(in), in); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := segmentStamp(e.Name()); !ok || !e.Type().IsRegular() {
			t.Errorf("stray non-segment entry %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("%d entries after one store's puts, want its one segment", len(entries))
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := testStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := payload{Name: "shared", Cycles: 42} // same key from all goroutines
				key := Fingerprint(in)
				if err := s.Put(key, in); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				var out payload
				if s.Get(key, &out) && !reflect.DeepEqual(in, out) {
					t.Errorf("torn read: %+v", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentWritersSameKeyAtomic is the stronger atomicity check: many
// writers race distinct large payloads onto the same key while readers poll.
// Because a record is appended in one write and re-checked against its CRC
// on every read, a reader must only ever observe exactly one writer's
// complete payload — a Hist whose every word matches its Cycles stamp —
// never an interleaving of two, and never a corruption tick.
func TestConcurrentWritersSameKeyAtomic(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	const (
		writers = 8
		rounds  = 25
		words   = 4096 // ~32 KB payloads: large enough to span many pages
	)
	key := Fingerprint("contended-slot")

	intact := func(p payload) bool {
		if len(p.Hist) != words {
			return false
		}
		for _, w := range p.Hist {
			if w != p.Cycles {
				return false
			}
		}
		return true
	}

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			in := payload{Name: "writer", Cycles: int64(g)}
			in.Hist = make([]int64, words)
			for i := range in.Hist {
				in.Hist[i] = in.Cycles
			}
			for i := 0; i < rounds; i++ {
				if err := s.Put(key, in); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var out payload
				if s.Get(key, &out) && !intact(out) {
					t.Errorf("torn read: writer %d payload with %d/%d intact words",
						out.Cycles, countEq(out.Hist, out.Cycles), words)
					return
				}
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("corruption ticks during concurrent same-key writes: %+v", st)
	}
	var final payload
	if !s.Get(key, &final) || !intact(final) {
		t.Errorf("final entry missing or torn: %+v", final.Cycles)
	}
}

func countEq(h []int64, v int64) int {
	n := 0
	for _, w := range h {
		if w == v {
			n++
		}
	}
	return n
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	type spec struct {
		Bench  string
		Width  int
		Budget int64
	}
	a := Fingerprint(spec{"compress", 4, 1000})
	b := Fingerprint(spec{"compress", 4, 1000})
	if a != b {
		t.Error("identical specs fingerprint differently")
	}
	if a == Fingerprint(spec{"compress", 8, 1000}) {
		t.Error("different widths share a fingerprint")
	}
	if a == Fingerprint(spec{"compress", 4, 2000}) {
		t.Error("different budgets share a fingerprint")
	}
	if len(a) != 64 {
		t.Errorf("fingerprint length %d, want 64 hex chars", len(a))
	}
}
