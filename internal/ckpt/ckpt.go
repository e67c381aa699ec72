// Package ckpt is the checkpoint store behind sweep fast-forwarding: it
// holds full-fidelity machine snapshots (warm-up prefixes shared between
// configurations) and finished results (shared between configurations whose
// runs are provably identical), in memory and optionally on disk.
//
// The store is deliberately dumb: keys are opaque strings the experiment
// layer derives from config fingerprints, and the store never inspects what
// a key means. All sharing-soundness decisions (which configurations may
// serve which entries) live in internal/exper, next to the preservation
// argument in core.Resume and rename.RestoreUnit.
//
// Disk persistence writes each entry through rescache's raw-bytes path
// (atomic write-rename, corruption-tolerant reads) in a compact binary
// encoding (codec.go) whose header carries the format revision, entry kind
// and key; Decode is total, so a corrupt or hostile file can only read as a
// miss, and an entry from an older format revision is dropped as stale.
package ckpt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"regsim/internal/core"
	"regsim/internal/sweep/rescache"
)

// Version identifies the checkpoint entry format. It is folded into the
// experiment layer's cache fingerprints, so bumping it (for a snapshot
// layout change, or a sharing-rule fix that old entries predate) atomically
// invalidates every persisted checkpoint and result.
const Version = "ckpt-1"

// FormatVersion is the on-disk encoding's revision (codec.go). Entries of
// any other revision read as stale misses. Unlike Version it is not part of
// any cache key, so bumping it leaves the result cache valid.
const FormatVersion = 2

// Kind discriminates the two entry types.
type Kind string

const (
	// KindSnapshot entries carry a machine snapshot (a resumable warm-up
	// prefix).
	KindSnapshot Kind = "snapshot"
	// KindResult entries carry a finished run's Result plus the metadata
	// needed to decide whether another configuration may share it.
	KindResult Kind = "result"
)

// ResultMeta qualifies a stored result for cross-configuration sharing.
type ResultMeta struct {
	// Watermark is the run's final rename allocation watermark per file.
	// A result is servable to a target register file size only when the
	// target clears both watermarks by 2 (see rename.RestoreUnit).
	Watermark [2]int `json:"watermark"`
	// PressureFree reports that the run never ticked a register-pressure
	// counter end to end.
	PressureFree bool `json:"pressureFree"`
	// Model is the source run's exception model string. A precise
	// pressure-free run is servable to both models (its kill-free
	// allocation trajectory upper-bounds the imprecise one); an imprecise
	// run serves only imprecise targets.
	Model string `json:"model"`
}

// Envelope is the serialized checkpoint entry.
type Envelope struct {
	Format  int
	Version string
	Kind    Kind
	Key     string
	Snap    *core.Snapshot
	Result  *core.Result
	Meta    *ResultMeta
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
	switch e.Kind {
	case KindSnapshot:
		if e.Snap == nil {
			return fmt.Errorf("ckpt: snapshot envelope has no snapshot")
		}
		return e.Snap.Validate()
	case KindResult:
		if e.Result == nil || e.Meta == nil {
			return fmt.Errorf("ckpt: result envelope missing result or metadata")
		}
		if e.Meta.Watermark[0] < 0 || e.Meta.Watermark[1] < 0 {
			return fmt.Errorf("ckpt: negative watermark %v", e.Meta.Watermark)
		}
		return nil
	default:
		return fmt.Errorf("ckpt: unknown envelope kind %q", e.Kind)
	}
}

// resultEntry pairs a stored result with its sharing metadata.
type resultEntry struct {
	res  *core.Result
	meta ResultMeta
}

// Store holds checkpoint entries. All methods are safe for concurrent use.
// Entries are immutable once stored: Snapshot returns the shared snapshot
// (which core.Resume never mutates), Result returns a deep copy.
type Store struct {
	mu      sync.Mutex
	snaps   map[string]*core.Snapshot
	results map[string]resultEntry

	disk *rescache.Store // nil for memory-only stores

	snapHits, snapMisses     atomic.Int64
	resultHits, resultMisses atomic.Int64
}

// NewStore returns a memory-only store (entries die with the process).
func NewStore() *Store {
	return &Store{
		snaps:   make(map[string]*core.Snapshot),
		results: make(map[string]resultEntry),
	}
}

// OpenStore returns a store that additionally persists entries under dir,
// sharing rescache's durability properties (atomic writes, corruption-
// tolerant reads, multi-process safe). Entries read from disk are cached in
// memory.
func OpenStore(dir string) (*Store, error) {
	disk, err := rescache.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := NewStore()
	s.disk = disk
	return s, nil
}

// Dir returns the backing directory, or "" for a memory-only store.
func (s *Store) Dir() string {
	if s.disk == nil {
		return ""
	}
	return s.disk.Dir()
}

// diskKey suffixes the entry kind so snapshot and result entries for the
// same logical key never collide in the shared rescache namespace.
func diskKey(kind Kind, key string) string {
	if kind == KindSnapshot {
		return key + "-s"
	}
	return key + "-r"
}

// PutSnapshot stores a snapshot under key. Disk-write failures are
// returned but leave the in-memory entry in place: a full disk degrades
// persistence, not correctness.
func (s *Store) PutSnapshot(key string, snap *core.Snapshot) error {
	s.mu.Lock()
	s.snaps[key] = snap
	s.mu.Unlock()
	return s.PersistSnapshot(key, snap)
}

// PersistSnapshot writes a snapshot to the disk tier only, leaving memory
// untouched; on a memory-only store it does nothing. It suits entries whose
// content the key fixes and which only a later process reads — exact
// milestones — so a long sweep does not hold every snapshot it captured in
// memory; a read in this process still finds the entry on disk.
func (s *Store) PersistSnapshot(key string, snap *core.Snapshot) error {
	if s.disk == nil {
		return nil
	}
	return s.put(&Envelope{Kind: KindSnapshot, Key: diskKey(KindSnapshot, key), Snap: snap})
}

// put encodes e, stamped with this format and version, into the disk tier
// under its key.
func (s *Store) put(e *Envelope) error {
	e.Format, e.Version = FormatVersion, Version
	data, err := Encode(e)
	if err != nil {
		return err
	}
	return s.disk.PutBytes(e.Key, data)
}

// get reads the disk-tier entry of the given kind under key, or returns nil
// on a miss. An entry that fails to decode, or holds another kind or key, is
// removed by the disk tier and reads as a miss.
func (s *Store) get(kind Kind, key string) *Envelope {
	dk := diskKey(kind, key)
	var e *Envelope
	s.disk.GetBytes(dk, func(data []byte) error {
		d, err := Decode(data)
		if err != nil {
			return err
		}
		if d.Kind != kind || d.Key != dk {
			return fmt.Errorf("ckpt: entry %s holds %s entry %s", dk, d.Kind, d.Key)
		}
		e = d
		return nil
	})
	return e
}

// Snapshot loads the snapshot stored under key, consulting memory first and
// then disk. The returned snapshot is shared and must be treated read-only
// (core.Resume copies out of it and never writes into it).
func (s *Store) Snapshot(key string) (*core.Snapshot, bool) {
	s.mu.Lock()
	snap, ok := s.snaps[key]
	s.mu.Unlock()
	if ok {
		s.snapHits.Add(1)
		return snap, true
	}
	if s.disk != nil {
		if e := s.get(KindSnapshot, key); e != nil {
			s.mu.Lock()
			s.snaps[key] = e.Snap
			s.mu.Unlock()
			s.snapHits.Add(1)
			return e.Snap, true
		}
	}
	s.snapMisses.Add(1)
	return nil, false
}

// PutResult stores a finished result and its sharing metadata under key.
// The result is deep-copied on the way in, so later mutation by the caller
// cannot corrupt the store.
func (s *Store) PutResult(key string, res *core.Result, meta ResultMeta) error {
	res = res.Clone()
	s.mu.Lock()
	s.results[key] = resultEntry{res: res, meta: meta}
	s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.put(&Envelope{Kind: KindResult, Key: diskKey(KindResult, key), Result: res, Meta: &meta})
}

// Result loads the result stored under key, returning a deep copy (entries
// are served to many configurations; none may alias another's histograms).
func (s *Store) Result(key string) (*core.Result, ResultMeta, bool) {
	s.mu.Lock()
	ent, ok := s.results[key]
	s.mu.Unlock()
	if ok {
		s.resultHits.Add(1)
		return ent.res.Clone(), ent.meta, true
	}
	if s.disk != nil {
		if e := s.get(KindResult, key); e != nil {
			s.mu.Lock()
			s.results[key] = resultEntry{res: e.Result, meta: *e.Meta}
			s.mu.Unlock()
			s.resultHits.Add(1)
			return e.Result.Clone(), *e.Meta, true
		}
	}
	s.resultMisses.Add(1)
	return nil, ResultMeta{}, false
}

// Stats is a point-in-time snapshot of the store's hit/miss counters.
type Stats struct {
	SnapshotHits   int64
	SnapshotMisses int64
	ResultHits     int64
	ResultMisses   int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		SnapshotHits:   s.snapHits.Load(),
		SnapshotMisses: s.snapMisses.Load(),
		ResultHits:     s.resultHits.Load(),
		ResultMisses:   s.resultMisses.Load(),
	}
}

// Milestones returns the snapshot-capture grid for a commit budget: powers
// of two from 1024 up to (exclusive) the budget, then the budget itself.
// The final milestone — the completed run's state — is what lets a larger-
// budget run resume where a smaller one finished, since milestone keys are
// budget-independent (a run's trajectory does not depend on where it will
// be told to stop).
func Milestones(budget int64) []int64 {
	var ms []int64
	for mi := int64(1024); mi < budget; mi <<= 1 {
		ms = append(ms, mi)
	}
	return append(ms, budget)
}
