// Package rescache is the persistent half of the sweep subsystem: an
// on-disk, content-addressed result store. Entries are keyed by a
// fingerprint of everything that could change a simulation's output (the
// full machine spec, the commit budget, and the simulator/workload version
// strings) and stored as versioned JSON envelopes. Other stores that need the
// same durability with their own encoding write raw bytes through
// PutBytes/GetBytes.
//
// Durability properties:
//
//   - writes are atomic (temp file in the same directory, then rename), so
//     a crashed or concurrent writer can never leave a half-written entry
//     visible;
//   - reads are corruption tolerant: an entry that fails to parse, carries
//     the wrong format version, or does not match its key is removed and
//     reported as a miss — the caller re-simulates, nothing is fatal;
//   - the store is safe for concurrent use by multiple goroutines and
//     (thanks to write-rename and content addressing) by multiple
//     processes sharing one directory.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FormatVersion is the on-disk envelope format. Bumping it invalidates every
// existing entry (old entries read as misses and are garbage-collected on
// access).
const FormatVersion = 1

// Store is one cache directory. Construct with Open.
type Store struct {
	dir string

	hits   atomic.Int64
	misses atomic.Int64
	errs   atomic.Int64
}

// Open creates (if needed) and validates the cache directory, probing that
// it is writable so that misconfiguration surfaces at startup rather than
// as a silent per-entry write failure mid-sweep.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("rescache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("rescache: directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// envelope is the on-disk entry format. Key is stored redundantly so that a
// renamed or mis-copied file cannot serve the wrong result.
type envelope struct {
	Format int             `json:"format"`
	Key    string          `json:"key"`
	Value  json.RawMessage `json:"value"`
}

// path shards entries by the first key byte to keep directory sizes sane for
// multi-thousand-entry sweeps.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// ErrStale marks an entry written under an older format revision. A decode
// function handed to GetBytes returns it (possibly wrapped) to have the entry
// dropped quietly, as staleness rather than corruption.
var ErrStale = errors.New("rescache: stale entry format")

// Get loads the entry for key into v, reporting whether it was present and
// intact. Any defect — unreadable file, bad JSON, format or key mismatch —
// counts as a miss (plus an error counter tick) and removes the bad entry so
// the slot heals on the next Put.
func (s *Store) Get(key string, v any) bool {
	return s.GetBytes(key, func(data []byte) error {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			return err
		}
		if env.Key != key {
			return fmt.Errorf("rescache: entry holds key %q", env.Key)
		}
		if env.Format != FormatVersion {
			return ErrStale
		}
		return json.Unmarshal(env.Value, v)
	})
}

// GetBytes reads the raw entry stored under key and hands it to decode,
// reporting whether the entry was present and decode accepted it. A decode
// error removes the entry and counts as a miss: one wrapping ErrStale
// quietly (a format bump), any other also ticks the error counter.
func (s *Store) GetBytes(key string, decode func(data []byte) error) bool {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	if err := decode(data); err != nil {
		os.Remove(path)
		if !errors.Is(err, ErrStale) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// Put stores v under key as a JSON envelope. The envelope is assembled
// around the value's encoding directly, in one pass: the bytes are exactly
// what marshalling the envelope struct would produce.
func (s *Store) Put(key string, v any) error {
	val, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rescache: encode %s: %w", key, err)
	}
	quoted, _ := json.Marshal(key) // a string always marshals
	data := fmt.Appendf(make([]byte, 0, len(val)+len(quoted)+32),
		`{"format":%d,"key":%s,"value":`, FormatVersion, quoted)
	data = append(append(data, val...), '}')
	return s.PutBytes(key, data)
}

// PutBytes stores data under key atomically: the entry is written to a
// temporary file in the destination directory and renamed into place, so
// readers (in this or any other process) only ever observe complete entries.
func (s *Store) PutBytes(key string, data []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: commit %s: %w", key, err)
	}
	return nil
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts Gets served from an intact entry.
	Hits int64
	// Misses counts Gets that found no usable entry (including every
	// corrupt or stale one).
	Misses int64
	// Errors counts defective entries encountered (corrupt JSON, key
	// mismatch, unreadable file) — always also counted as misses.
	Errors int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Errors: s.errs.Load()}
}

// Fingerprint derives a content address from any JSON-encodable value: the
// hex SHA-256 of its canonical encoding. Callers should pass a struct whose
// fields enumerate everything that can change the cached computation's
// output; two specs collide only if they encode identically.
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Fingerprint inputs are plain structs of scalars; an encoding
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("rescache: fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
