package rescache

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// getAll looks keys up in one GetAll and returns the payload each hit
// decoded to, by key index; a miss leaves its slot nil.
func getAll(s *Store, keys []string) ([]*payload, int) {
	out := make([]*payload, len(keys))
	hits := s.GetAll(keys, func(i int, val []byte) error {
		p := new(payload)
		if err := p.UnmarshalBinary(val); err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	return out, hits
}

// putPayloads puts n payloads named prefix0, prefix1, … and returns their
// keys and values.
func putPayloads(t *testing.T, s *Store, prefix string, n int) ([]string, []payload) {
	t.Helper()
	keys := make([]string, n)
	vals := make([]payload, n)
	for i := range keys {
		vals[i] = payload{Name: fmt.Sprintf("%s%d", prefix, i), Cycles: int64(i), Hist: []int64{int64(i), 7}}
		keys[i] = Fingerprint(vals[i].Name)
		if err := s.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	return keys, vals
}

// TestGetAllCorruptRecordMidSpan: five records lie back to back, so one
// read fetches them all. A byte flipped in the middle one's payload fails
// its CRC: that key alone misses, with one error tick, and leaves the
// index, while its neighbours in the same read are served.
func TestGetAllCorruptRecordMidSpan(t *testing.T) {
	s := testStore(t)
	keys, vals := putPayloads(t, s, "span", 5)
	seg := segmentFiles(t, s.Dir())[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	victim := readRecords(t, seg)[2]
	// "span2" → "spao2": still a decodable payload, so only the record's
	// checks can catch it.
	at := victim.off + headerLen + int64(len(victim.key)+bytes.Index(victim.data, []byte("span2"))+3)
	b[at] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := reopen(t, s)
	got, hits := getAll(fresh, append(keys, Fingerprint("absent")))
	if hits != 4 {
		t.Errorf("%d hits, want the 4 intact records", hits)
	}
	for i, p := range got[:5] {
		switch {
		case i == 2 && p != nil:
			t.Errorf("the corrupt record was served: %+v", *p)
		case i != 2 && (p == nil || !reflect.DeepEqual(*p, vals[i])):
			t.Errorf("record %d beside the corrupt one read back %v, want %+v", i, p, vals[i])
		}
	}
	if st := fresh.Stats(); st.Hits != 4 || st.Misses != 2 || st.Errors != 1 {
		t.Errorf("stats %+v, want 4 hits, 2 misses (the corrupt and the absent key), 1 error", st)
	}
	if indexed(fresh, keys[2]) {
		t.Error("the corrupt record's key is still indexed")
	}
}

// TestGetAllMisses: keys whose records are gone read as quiet misses,
// whether the record is a torn tail, lies in a segment removed after the
// reader indexed it, or was never written; keys whose segment another store
// folded after the reader indexed it are served from the fold's copy. A
// lookup that names an unindexed key refreshes the index, so it sees the
// removal and the fold.
func TestGetAllMisses(t *testing.T) {
	absent := Fingerprint("never written")
	t.Run("torn tail", func(t *testing.T) {
		s := testStore(t)
		keys, vals := putPayloads(t, s, "torn", 3)
		seg := segmentFiles(t, s.Dir())[0]
		last := readRecords(t, seg)[2]
		if err := os.Truncate(seg, last.off+headerLen+int64(len(last.key))+2); err != nil {
			t.Fatal(err)
		}
		fresh := reopen(t, s)
		got, hits := getAll(fresh, append(keys, absent))
		if hits != 2 || got[2] != nil || got[3] != nil {
			t.Errorf("%d hits (torn served %v, absent served %v), want the 2 complete records", hits, got[2] != nil, got[3] != nil)
		}
		for i := range 2 {
			if got[i] == nil || !reflect.DeepEqual(*got[i], vals[i]) {
				t.Errorf("complete record %d read back %v", i, got[i])
			}
		}
		if st := fresh.Stats(); st.Misses != 2 || st.Errors != 0 {
			t.Errorf("stats %+v, want 2 quiet misses", st)
		}
	})
	t.Run("segment removed", func(t *testing.T) {
		w := testStore(t)
		keys, _ := putPayloads(t, w, "removed", 3)
		r := reopen(t, w)
		if _, hits := getAll(r, keys); hits != 3 {
			t.Fatalf("%d hits before the removal, want 3", hits)
		}
		if err := os.Remove(segmentFiles(t, w.Dir())[0]); err != nil {
			t.Fatal(err)
		}
		got, hits := getAll(r, append(keys, absent))
		if hits != 0 {
			t.Errorf("%d hits from a removed segment (%v), want none", hits, got)
		}
		if st := r.Stats(); st.Misses != 4 || st.Errors != 0 {
			t.Errorf("stats %+v, want 4 quiet misses after the 3 hits", st)
		}
	})
	t.Run("segment folded", func(t *testing.T) {
		dir := t.TempDir()
		var keys []string
		var vals []payload
		for i := 0; i <= maxSegments; i++ { // one segment too many: the next store folds them all
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k, v := putPayloads(t, s, fmt.Sprintf("folded%d-", i), 1)
			keys, vals = append(keys, k...), append(vals, v...)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		indexWithoutFold(r)
		folder, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if segs := folder.Segments(); len(segs) != 1 {
			t.Fatalf("%d segments after the fold, want 1", len(segs))
		}
		got, hits := getAll(r, append(keys, absent))
		if hits != len(keys) {
			t.Errorf("%d hits, want all %d folded records", hits, len(keys))
		}
		for i := range keys {
			if got[i] == nil || !reflect.DeepEqual(*got[i], vals[i]) {
				t.Errorf("folded record %d read back %v", i, got[i])
			}
		}
		if st := r.Stats(); st.Misses != 1 || st.Errors != 0 {
			t.Errorf("stats %+v, want only the absent key's quiet miss", st)
		}
	})
}

// TestGetAllDuplicateAndUnorderedKeys: keys may come in any order and
// repeat; each is decoded and counted on its own.
func TestGetAllDuplicateAndUnorderedKeys(t *testing.T) {
	s := testStore(t)
	keys, vals := putPayloads(t, s, "dup", 3)
	ask := []string{keys[2], keys[0], keys[2], keys[1]}
	got, hits := getAll(reopen(t, s), ask)
	if hits != len(ask) {
		t.Fatalf("%d hits, want %d", hits, len(ask))
	}
	for i, want := range []payload{vals[2], vals[0], vals[2], vals[1]} {
		if !reflect.DeepEqual(*got[i], want) {
			t.Errorf("key %d read back %+v, want %+v", i, *got[i], want)
		}
	}
}

// TestScanWindows: a segment scan reads records in bounded windows and,
// after a large record, only the next header and key. Whatever mix of
// record sizes and key lengths straddles those windows, a fresh store
// indexes every record and reads each back.
func TestScanWindows(t *testing.T) {
	s := testStore(t)
	want := make(map[string][]byte)
	put := func(key string, size int) {
		data := bytes.Repeat([]byte{byte(len(want))}, size)
		if err := s.PutBytes(key, data); err != nil {
			t.Fatal(err)
		}
		want[key] = data
	}
	for i := 0; i < 400; i++ { // small records across several windows
		put(Fingerprint(i), 200+i%50)
	}
	put(Fingerprint("big"), scanWindow+100)
	put(Fingerprint("small after big"), 10)
	put(Fingerprint("big again"), 3*bigRecord)
	put(strings.Repeat("k", 3*headerAndKey), 2*scanWindow) // a key longer than the small read
	put(strings.Repeat("q", scanWindow+1), 5)              // a key longer than a window
	for i := 0; i < 100; i++ {
		put(Fingerprint(fmt.Sprint("tail", i)), 1000)
	}
	fresh := reopen(t, s)
	segs := fresh.Segments()
	if len(segs) != 1 || segs[0].Records != len(want) || segs[0].Live != len(want) {
		t.Fatalf("indexed %+v, want one segment of %d live records", segs, len(want))
	}
	for key, data := range want {
		if got, ok := getBytes(fresh, key); !ok || !bytes.Equal(got, data) {
			t.Fatalf("record %.20s… did not read back (hit %v)", key, ok)
		}
	}
}

// indexWithoutFold indexes s's directory as a store that opened before it
// held too many segments would have: without folding, so that another
// store's first scan is the one to fold.
func indexWithoutFold(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index = make(map[string]loc)
	s.refresh()
}

// TestBatchReadsBesideWriterAndFold: batch readers sharing one store run
// beside a writer appending to the directory and a second store whose first
// scan folds every segment. Every value served is the one put under its
// key, every key put before the readers started is served, and no read
// counts an error. CI runs it under the race detector at -count=10.
func TestBatchReadsBesideWriterAndFold(t *testing.T) {
	dir := t.TempDir()
	value := func(name string) payload { return payload{Name: name, Hist: []int64{int64(len(name))}} }
	var names []string
	for i := 0; i <= maxSegments; i++ { // one segment too many: a new store folds them all
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			name := fmt.Sprint("old-", i, "-", j)
			if err := s.Put(Fingerprint(name), value(name)); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	readers, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	indexWithoutFold(readers)
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	folder, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			name := fmt.Sprint("new-", i)
			if err := writer.Put(Fingerprint(name), value(name)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		folder.Segments()
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 20; round++ {
				// The old keys, and two new ones that may not be written
				// yet: a miss on either refreshes the index.
				batch := append(append([]string(nil), names[g*10:]...), fmt.Sprint("new-", round), fmt.Sprint("new-", 2*round))
				keys := make([]string, len(batch))
				for i, name := range batch {
					keys[i] = Fingerprint(name)
				}
				got, hits := getAll(readers, keys)
				for i, p := range got {
					if p != nil && !reflect.DeepEqual(*p, value(batch[i])) {
						t.Errorf("served %+v under %s", *p, batch[i])
					}
				}
				if hits < len(batch)-2 {
					t.Errorf("round %d: %d hits, but %d keys were put before the readers started", round, hits, len(batch)-2)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if st := readers.Stats(); st.Errors != 0 {
		t.Errorf("stats %+v, want no errors", st)
	}
}
