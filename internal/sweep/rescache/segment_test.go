package rescache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestTornTail: a segment cut inside its last record (a crash mid-write)
// serves every earlier record, and the torn one is a quiet miss, not an
// error. The writer notices its segment is not the length it wrote and
// starts a new one, so its next put of the torn key reaches a fresh store.
func TestTornTail(t *testing.T) {
	s := testStore(t)
	keys := []string{Fingerprint("k0"), Fingerprint("k1"), Fingerprint("k2")}
	for i, key := range keys {
		if err := s.PutBytes(key, bytes.Repeat([]byte{'a' + byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	seg := segmentFiles(t, s.Dir())[0]
	last := readRecords(t, seg)[2]
	// Cut inside the last record's data, then inside its header.
	for _, cut := range []int64{last.off + headerLen + int64(len(last.key)) + 70, last.off + 5} {
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		fresh := reopen(t, s)
		for i, key := range keys[:2] {
			if got, ok := getBytes(fresh, key); !ok || !bytes.Equal(got, bytes.Repeat([]byte{'a' + byte(i)}, 100)) {
				t.Errorf("cut at %d: record %d before the torn tail did not read back (hit %v)", cut, i, ok)
			}
		}
		if _, ok := getBytes(fresh, keys[2]); ok {
			t.Errorf("cut at %d: torn record served as a hit", cut)
		}
		if st := fresh.Stats(); st.Errors != 0 || st.Misses != 1 {
			t.Errorf("cut at %d: stats %+v, want 1 quiet miss", cut, st)
		}
	}
	if err := s.PutBytes(keys[2], []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := getBytes(reopen(t, s), keys[2]); !ok || string(got) != "healed" {
		t.Errorf("put after the torn tail read back %q (hit %v) in a fresh store", got, ok)
	}
}

// TestStoresShareADirectory: two stores over one directory — two processes
// — see each other's puts on their next miss.
func TestStoresShareADirectory(t *testing.T) {
	a := testStore(t)
	b := reopen(t, a)
	ka, kb := Fingerprint("a"), Fingerprint("b")
	// Both indexes are loaded before either store writes, so only a
	// refresh can find the other's record.
	for _, s := range []*Store{a, b} {
		if _, ok := getBytes(s, Fingerprint("absent")); ok {
			t.Fatal("hit on an empty directory")
		}
	}
	if err := a.PutBytes(ka, []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if got, ok := getBytes(b, ka); !ok || string(got) != "from a" {
		t.Errorf("b read a's put as %q (hit %v)", got, ok)
	}
	if err := b.PutBytes(kb, []byte("from b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := getBytes(a, kb); !ok || string(got) != "from b" {
		t.Errorf("a read b's put as %q (hit %v)", got, ok)
	}
	if n := len(segmentFiles(t, a.Dir())); n != 2 {
		t.Errorf("%d segments, want one per writing store", n)
	}
	for _, s := range []*Store{a, b} {
		if st := s.Stats(); st.Errors != 0 {
			t.Errorf("stats %+v, want no errors", st)
		}
	}
}

// TestNewestRecordWins: a key's record in a later segment wins over one in
// an earlier segment, and within a segment the later offset wins.
func TestNewestRecordWins(t *testing.T) {
	old := testStore(t)
	key := Fingerprint("k")
	for _, v := range []string{"v1", "v2"} {
		if err := old.PutBytes(key, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := getBytes(reopen(t, old), key); string(got) != "v2" {
		t.Errorf("within a segment read %q, want the later offset's v2", got)
	}
	newer := reopen(t, old)
	if err := newer.PutBytes(key, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	// A later put to the earlier segment does not win over the later one.
	if err := old.PutBytes(key, []byte("v4")); err != nil {
		t.Fatal(err)
	}
	if got, _ := getBytes(reopen(t, old), key); string(got) != "v3" {
		t.Errorf("across segments read %q, want the later segment's v3", got)
	}
}

// TestFold: a store's first scan folds every segment when there are more
// than maxSegments, and a segment holding more superseded than live bytes
// otherwise; every key still reads back, and no segment is left holding
// more superseded than live bytes.
func TestFold(t *testing.T) {
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1000) }
	readsBack := func(t *testing.T, dir string, keys map[string][]byte) {
		t.Helper()
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for key, want := range keys {
			if got, ok := getBytes(fresh, key); !ok || !bytes.Equal(got, want) {
				t.Errorf("%s did not read back after the fold (hit %v)", key, ok)
			}
		}
		for _, seg := range fresh.Segments() {
			if seg.Bytes-seg.LiveBytes > seg.LiveBytes {
				t.Errorf("segment %+v holds more superseded than live bytes", seg)
			}
		}
	}
	t.Run("too many segments", func(t *testing.T) {
		dir := t.TempDir()
		keys := make(map[string][]byte)
		for i := 0; i <= maxSegments; i++ {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := Fingerprint(i)
			keys[key] = value(i)
			if err := s.PutBytes(key, keys[key]); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(segmentFiles(t, dir)); n != maxSegments+1 {
			t.Fatalf("%d segments before the fold, want %d", n, maxSegments+1)
		}
		tenth, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		segs := tenth.Segments()
		if len(segs) != 1 || segs[0].Records != len(keys) || segs[0].Live != len(keys) {
			t.Errorf("after the fold: %+v, want one segment of %d records, all live", segs, len(keys))
		}
		if n := len(segmentFiles(t, dir)); n != 1 {
			t.Errorf("%d segment files after the fold, want 1", n)
		}
		readsBack(t, dir, keys)
	})
	t.Run("mostly superseded", func(t *testing.T) {
		dir := t.TempDir()
		keys := make(map[string][]byte)
		first, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			key := Fingerprint(i)
			keys[key] = value(i)
			if err := first.PutBytes(key, keys[key]); err != nil {
				t.Fatal(err)
			}
		}
		second := reopen(t, first)
		for i := 0; i < 2; i++ { // supersede two of first's three records
			key := Fingerprint(i)
			keys[key] = value(10 + i)
			if err := second.PutBytes(key, keys[key]); err != nil {
				t.Fatal(err)
			}
		}
		firstSeg := segmentFiles(t, dir)[0]
		third := reopen(t, first)
		third.Segments()
		if _, err := os.Stat(firstSeg); !os.IsNotExist(err) {
			t.Errorf("mostly superseded segment %s was not folded (stat: %v)", firstSeg, err)
		}
		if n := len(segmentFiles(t, dir)); n != 2 {
			t.Errorf("%d segment files, want the live one and the folding store's", n)
		}
		readsBack(t, dir, keys)
	})
}

// TestSegmentRemovedOrReplaced: a store whose segment was removed (a fold by
// another store) or replaced by another file starts a new segment, and its
// later puts reach a fresh store.
func TestSegmentRemovedOrReplaced(t *testing.T) {
	for name, disturb := range map[string]func(path string) error{
		"removed": os.Remove,
		"replaced": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.WriteFile(path, b, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			ka, kb := Fingerprint("a"), Fingerprint("b")
			if err := s.PutBytes(ka, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := disturb(segmentFiles(t, s.Dir())[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBytes(kb, []byte("b")); err != nil {
				t.Fatal(err)
			}
			if got, ok := getBytes(reopen(t, s), kb); !ok || string(got) != "b" {
				t.Errorf("put after the segment was %s read back %q (hit %v) in a fresh store", name, got, ok)
			}
		})
	}
}

// TestFailedWriteAbandonsSegment: a put whose write fails abandons the
// store's segment, and the next put starts a new one that a fresh store
// reads.
func TestFailedWriteAbandonsSegment(t *testing.T) {
	s := testStore(t)
	ka, kb := Fingerprint("a"), Fingerprint("b")
	if err := s.PutBytes(ka, []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.own.f.Close() // every later write to the segment fails
	s.mu.Unlock()
	if err := s.PutBytes(kb, []byte("lost")); err == nil {
		t.Fatal("a put whose write failed reported success")
	}
	if err := s.PutBytes(kb, []byte("b")); err != nil {
		t.Fatalf("the put after a failed write: %v", err)
	}
	fresh := reopen(t, s)
	for key, want := range map[string]string{ka: "a", kb: "b"} {
		if got, ok := getBytes(fresh, key); !ok || string(got) != want {
			t.Errorf("%s read back %q (hit %v), want %q", key, got, ok, want)
		}
	}
	if n := len(segmentFiles(t, s.Dir())); n != 2 {
		t.Errorf("%d segments, want the abandoned one and its successor", n)
	}
}

// TestOldLayoutIgnored: a directory written before segments (one
// <key>.json file per entry in two-hex-digit shard directories) reads as
// empty, without errors, and takes new entries.
func TestOldLayoutIgnored(t *testing.T) {
	dir := t.TempDir()
	key := Fingerprint("old")
	old := []byte(`{"format":1,"key":"` + key + `","value":{"Name":"old"}}`)
	if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key[:2], key+".json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Errorf("an old per-entry file served as a hit: %+v", out)
	}
	if err := s.Put(key, payload{Name: "new"}); err != nil {
		t.Fatal(err)
	}
	if !reopen(t, s).Get(key, &out) || out.Name != "new" {
		t.Errorf("new entry read back as %+v", out)
	}
	if st := s.Stats(); st.Errors != 0 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 quiet miss", st)
	}
}

// validPayload reports whether seg holds, at some offset, a record under
// key that passes every check and carries payload.
func validPayload(seg []byte, key string, payload []byte) bool {
	for off := 0; off+headerLen <= len(seg); off++ {
		klen, dlen, ok := parseHeader(seg[off:])
		end := off + headerLen + int(klen) + int(dlen)
		if !ok || end > len(seg) {
			continue
		}
		rec := seg[off:end]
		if string(rec[headerLen:headerLen+klen]) == key && bytes.Equal(rec[headerLen+klen:], payload) &&
			crc32.Checksum(rec[headerLen:], castagnoli) == binary.LittleEndian.Uint32(rec[12:]) {
			return true
		}
	}
	return false
}

// FuzzSegmentScan: whatever bytes a segment file holds, a store over it
// never panics, and never serves bytes that are not a valid record's
// payload under the key asked for.
func FuzzSegmentScan(f *testing.F) {
	keys := []string{Fingerprint("k0"), Fingerprint("k1"), Fingerprint("k2")}
	var good []byte
	for i, key := range keys {
		data := []byte(fmt.Sprintf(`{"value":%d}`, i))
		good, _ = encodeRecord(good, key, func(b []byte) ([]byte, error) { return append(b, data...), nil })
	}
	f.Add(good)
	for _, n := range []int{len(good) - 1, len(good) / 2, headerLen - 1, 0} {
		f.Add(good[:n])
	}
	for _, bit := range []int{0, 4 * 8, 8 * 8, 12 * 8, (headerLen + 3) * 8, len(good)*8 - 1} {
		flipped := append([]byte(nil), good...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001"+segSuffix), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Segments()
		asked := append([]string(nil), keys...)
		s.mu.Lock()
		for key := range s.index {
			asked = append(asked, key)
		}
		s.mu.Unlock()
		for _, key := range asked {
			if got, ok := getBytes(s, key); ok && !validPayload(seg, key, got) {
				t.Fatalf("served %q under %q, which no valid record holds", got, key)
			}
		}
	})
}
