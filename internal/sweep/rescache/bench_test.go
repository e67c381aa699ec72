package rescache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// getBytes reads a copy of key's raw entry, reporting whether it hit.
func getBytes(s *Store, key string) ([]byte, bool) {
	var got []byte
	ok := s.GetBytes(key, func(data []byte) error { got = append([]byte(nil), data...); return nil })
	return got, ok
}

var benchHit bool

// storeEntries is the number of results a cold Fig. 6 sweep stores.
const storeEntries = 288

// BenchmarkPutBytes times one put of a result-sized (1.5 KiB) or
// snapshot-sized (50 KiB) payload into a fresh store. Every storeEntries
// puts it starts over in a new directory, so the disk use stays bounded.
func BenchmarkPutBytes(b *testing.B) {
	keys := make([]string, storeEntries)
	for i := range keys {
		keys[i] = Fingerprint(i)
	}
	for _, c := range []struct {
		name string
		size int
	}{{"1.5KiB", 1536}, {"50KiB", 50 << 10}} {
		size := c.size
		b.Run(c.name, func(b *testing.B) {
			data := bytes.Repeat([]byte{'x'}, size)
			root := b.TempDir()
			b.SetBytes(int64(size))
			var s *Store
			for i := 0; i < b.N; i++ {
				if i%storeEntries == 0 {
					b.StopTimer()
					dir := filepath.Join(root, fmt.Sprint(i))
					if err := os.RemoveAll(filepath.Join(root, fmt.Sprint(i-storeEntries))); err != nil {
						b.Fatal(err)
					}
					// Collect the last store, releasing any file it holds open.
					s = nil
					runtime.GC()
					var err error
					if s, err = Open(dir); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := s.PutBytes(keys[i%storeEntries], data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetReopened times a warm rerun's reads: storeEntries 1.5 KiB
// entries read through a newly opened store, its first scan included.
func BenchmarkGetReopened(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, storeEntries)
	data := bytes.Repeat([]byte{'x'}, 1536)
	for i := range keys {
		keys[i] = Fingerprint(i)
		if err := s.PutBytes(keys[i], data); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, key := range keys {
			_, benchHit = getBytes(fresh, key)
			if !benchHit {
				b.Fatalf("%s missed", key)
			}
		}
	}
}
