package rescache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type payload struct {
	Name   string
	Cycles int64
	Hist   []int64
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// entryFile locates the single entry file in the store directory.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	var found string
	err := filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".json" {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file in %s (err %v)", s.Dir(), err)
	}
	return found
}

func TestCorruptEntryIsAMissAndRemoved(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"truncated": []byte(`{"format":1,"key":`),
		"garbage":   []byte("\x00\x01not json at all"),
		"wrongKey":  []byte(`{"format":1,"key":"deadbeef","value":{}}`),
	} {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			in := payload{Name: "x", Cycles: 1}
			key := Fingerprint(in)
			if err := s.Put(key, in); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, s)
			if err := os.WriteFile(path, garbage, 0o644); err != nil {
				t.Fatal(err)
			}
			var out payload
			if s.Get(key, &out) {
				t.Fatal("corrupt entry served as a hit")
			}
			st := s.Stats()
			if st.Errors != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 error + 1 miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry was not removed")
			}
			// The slot heals: a fresh Put then hits.
			if err := s.Put(key, in); err != nil {
				t.Fatal(err)
			}
			if !s.Get(key, &out) || !reflect.DeepEqual(out, in) {
				t.Error("healed slot did not round-trip")
			}
		})
	}
}

func TestFormatVersionMismatchIsAQuietMiss(t *testing.T) {
	s := testStore(t)
	in := payload{Name: "x"}
	key := Fingerprint(in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s)
	stale := []byte(`{"format":999,"key":"` + key + `","value":{}}`)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Fatal("stale-format entry served as a hit")
	}
	if st := s.Stats(); st.Errors != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want a quiet miss (no error)", st)
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
			path := entryFile(t, s)
			if s.GetBytes(key, func([]byte) error { return c.err }) {
				t.Fatal("rejected entry served as a hit")
			}
			if st := s.Stats(); st.Errors != c.errors || st.Misses != 1 {
				t.Errorf("stats = %+v, want %d errors + 1 miss", st, c.errors)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("rejected entry was not removed")
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
	var wrong []string // cannot decode an object into a slice
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

func TestNoStrayTempFiles(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 10; i++ {
		in := payload{Cycles: int64(i)}
		if err := s.Put(Fingerprint(in), in); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) != ".json" {
			t.Errorf("stray non-entry file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
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
// Because writes are temp-file-plus-rename, a reader must only ever observe
// exactly one writer's complete payload — a Hist whose every word matches its
// Cycles stamp — never an interleaving of two, and never a corruption tick.
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
