// Package ckpt is the checkpoint store behind cross-budget fast-forwarding:
// it persists full-fidelity machine snapshots under a directory, one per
// key, so a later run of the same configuration — in any process — resumes
// from a stored state instead of simulating the prefix again.
//
// The store is deliberately dumb: keys are opaque strings the experiment
// layer derives from config fingerprints, and the store never inspects what
// a key means. Values stay on disk; the index holds their locations.
//
// Disk persistence writes each entry through rescache's raw-bytes path
// (records appended to the store's own segment, CRC-checked reads) in a
// compact binary encoding (codec.go) whose header carries the format
// revision, entry kind and key; Decode is total, so a corrupt or hostile
// entry can only read as a miss, and an entry from an older format revision
// is dropped as stale.
package ckpt

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/reuse"
	"regsim/internal/sweep/rescache"
)

// Version identifies the checkpoint entry format. It is folded into the
// experiment layer's cache fingerprints, so bumping it (for a snapshot
// layout change) atomically invalidates every persisted checkpoint and
// result.
const Version = "ckpt-1"

// FormatVersion is the on-disk encoding's revision (codec.go). Entries of
// any other revision read as stale misses. Unlike Version it is not part of
// any cache key, so bumping it leaves the result cache valid.
const FormatVersion = 3

// Kind names an entry type on the wire.
type Kind string

// KindSnapshot entries carry a machine snapshot (a resumable state).
// It is the only kind the store reads or writes.
const KindSnapshot Kind = "snapshot"

// Envelope is the serialized checkpoint entry.
type Envelope struct {
	Format  int
	Version string
	Kind    Kind
	Key     string
	Snap    *core.Snapshot
}

// Validate checks an envelope's structural sanity, delegating snapshot
// internals to core.Snapshot.Validate. It is total over decoded input.
func (e *Envelope) Validate() error {
	if e.Format != FormatVersion {
		return fmt.Errorf("ckpt: envelope format %d, want %d", e.Format, FormatVersion)
	}
	if e.Version != Version {
		return fmt.Errorf("ckpt: envelope version %q, want %q", e.Version, Version)
	}
	if e.Key == "" {
		return fmt.Errorf("ckpt: envelope has no key")
	}
	if e.Kind != KindSnapshot {
		return fmt.Errorf("ckpt: unknown envelope kind %q", e.Kind)
	}
	if e.Snap == nil {
		return fmt.Errorf("ckpt: snapshot envelope has no snapshot")
	}
	return e.Snap.Validate()
}

// Store persists machine snapshots under a directory, sharing rescache's
// durability properties (only complete records are read, corruption-tolerant
// reads, multi-process safe). All methods are safe for concurrent use.
type Store struct {
	disk *rescache.Store

	snapHits, snapMisses, snapDeeper atomic.Int64
}

// OpenStore returns a store over dir, creating it if needed.
func OpenStore(dir string) (*Store, error) {
	disk, err := rescache.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{disk: disk}, nil
}

// diskKey suffixes snapshot keys with "-s", keeping them apart from any
// other entries in a shared rescache namespace.
func diskKey(key string) string { return key + "-s" }

// scratches keeps the snapshot graphs that captures and decodes fill in
// place, one per worker a sweep runs at once by default. A graph is held
// for the length of one Store call and then goes back, so nothing a caller
// receives ever points into one.
var scratches = reuse.NewPool[core.Snapshot](runtime.GOMAXPROCS(0))

// PutSnapshot writes a snapshot under key. A failed write costs a future
// re-simulation, never a result. The entry is encoded straight into the
// disk tier's record buffer.
func (s *Store) PutSnapshot(key string, snap *core.Snapshot) error {
	e := Envelope{Format: FormatVersion, Version: Version, Kind: KindSnapshot, Key: diskKey(key), Snap: snap}
	return s.disk.PutFunc(e.Key, func(b []byte) ([]byte, error) { return appendEntry(b, &e) })
}

// Capture snapshots m and writes the snapshot under key, through a pooled
// scratch graph: once the pool's graphs have grown to a run's working size,
// a capture allocates next to nothing. A failed capture or write costs a
// future re-simulation, never a result.
func (s *Store) Capture(key string, m *core.Machine) error {
	snap := scratches.Get()
	defer scratches.Put(snap)
	if err := m.SnapshotInto(snap); err != nil {
		return err
	}
	return s.PutSnapshot(key, snap)
}

// read decodes the entry stored under key into e, reusing e's snapshot
// graph. An entry that fails to decode, or holds another key, is dropped
// from the disk tier's index and reads as a miss. It counts nothing.
func (s *Store) read(key string, e *Envelope) bool {
	dk := diskKey(key)
	return s.disk.GetBytes(dk, func(data []byte) error {
		if err := decodeInto(data, e); err != nil {
			return err
		}
		if e.Key != dk {
			return fmt.Errorf("ckpt: entry %s holds entry %s", dk, e.Key)
		}
		return nil
	})
}

// Snapshot reads and decodes the snapshot stored under key into a new
// graph, counting a hit if it decodes and a miss if not.
func (s *Store) Snapshot(key string) (*core.Snapshot, bool) {
	var e Envelope
	if !s.read(key, &e) {
		s.snapMisses.Add(1)
		return nil, false
	}
	s.snapHits.Add(1)
	return e.Snap, true
}

// Resume resumes a machine under cfg from the state stored under key, if
// that state lies at or below budget commits: a run stopping at budget
// passes through it. It returns the machine, or nil when the run must start
// cold, and the stored state's depth in commits, or 0 when the store holds
// no usable state. A state deeper than the budget is left in place, and its
// depth returned, so the caller does not overwrite it with a shallower one.
//
// The entry is decoded into a pooled scratch graph, which core.Resume
// copies out of. Each call counts once: a hit if the run resumes, a deeper
// entry if the stored state lies past the budget, else a miss.
func (s *Store) Resume(key string, budget int64, cfg core.Config, art *prog.Artifact) (*core.Machine, int64) {
	e := Envelope{Snap: scratches.Get()}
	defer scratches.Put(e.Snap)
	if !s.read(key, &e) {
		s.snapMisses.Add(1)
		return nil, 0
	}
	depth := e.Snap.Res.Committed
	if depth > budget {
		s.snapDeeper.Add(1)
		return nil, depth
	}
	m, err := core.Resume(cfg, art, e.Snap)
	if err != nil {
		// Unusable under cfg: a miss the caller's run replaces.
		s.snapMisses.Add(1)
		return nil, 0
	}
	s.snapHits.Add(1)
	return m, depth
}

// Stats is a point-in-time snapshot of the store's hit/miss counters.
type Stats struct {
	// SnapshotHits counts lookups that returned a usable state: every
	// Snapshot that decoded, and every Resume that resumed.
	SnapshotHits int64
	// SnapshotMisses counts lookups that found no usable state.
	SnapshotMisses int64
	// SnapshotDeeper counts Resume calls whose stored state lay past the
	// budget: a run at a smaller budget than the one that stored it.
	SnapshotDeeper int64
	// ResultHits and ResultMisses always read 0: the store holds no
	// finished results. They stay for callers that still report them.
	ResultHits   int64
	ResultMisses int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{SnapshotHits: s.snapHits.Load(), SnapshotMisses: s.snapMisses.Load(), SnapshotDeeper: s.snapDeeper.Load()}
}

// Milestones returns a commit grid for a budget: powers of two from 1024 up
// to (exclusive) the budget, then the budget itself. The store and the
// experiment layer do not use it; the benchmark harness (regbench) probes
// snapshot and resume cost on this grid.
func Milestones(budget int64) []int64 {
	var ms []int64
	for mi := int64(1024); mi < budget; mi <<= 1 {
		ms = append(ms, mi)
	}
	return append(ms, budget)
}
