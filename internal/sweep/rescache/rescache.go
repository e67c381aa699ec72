// Package rescache is the persistent half of the sweep subsystem: an
// on-disk, content-addressed result store. Entries are keyed by a
// fingerprint of everything that could change a simulation's output (the
// full machine spec, the commit budget, and the simulator/workload version
// strings) and stored as versioned binary envelopes around the value's own
// binary encoding (Put/Get). Other stores that need the same durability with
// their own encoding write raw bytes through PutBytes/GetBytes.
//
// On disk, a directory holds append-only segment files. Each Store appends
// to one segment of its own, created at its first write; a record is
// `magic | key len | data len | CRC-32C(key‖data) | key | data`, written
// with one write call. Reads go through an in-memory index of record
// locations (no payload stays in memory), which a miss refreshes from the
// tails of the segments. A key's newest record wins: the one in the later
// segment, or else at the later offset.
//
// Durability properties:
//
//   - a record becomes visible only once it is complete: a scan skips an
//     incomplete tail (a write in progress, or a crash mid-write) until it
//     is complete, and a bad header ends the scan of that segment;
//   - reads are corruption tolerant: every read re-checks the record's
//     header, CRC and key, and a record that fails them, or whose payload
//     the caller rejects, drops its key from the index and reads as a miss
//     — the caller re-simulates, nothing is fatal, and the next put heals
//     the key;
//   - a failed or short write abandons the writer's segment, and so does
//     finding the segment removed, replaced or cut short; the next put
//     starts a new one;
//   - disk use stays bounded: at its first scan a store folds into its own
//     segment every segment that holds more superseded than live bytes, and
//     every segment when there are more than maxSegments, then removes
//     them;
//   - the store is safe for concurrent use by multiple goroutines and by
//     multiple processes sharing one directory: no two stores append to one
//     segment, and a refresh drops segments whose files are gone.
package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regsim/internal/reuse"
)

// FormatVersion is the revision of the envelope Put writes:
//
//	"RSRC" | uvarint format | uvarint key length | key | value
//
// where value is the stored value's MarshalBinary bytes. Bumping it
// invalidates every existing entry: entries of another revision, and the
// JSON envelopes of format 1, read as quiet misses and are superseded by
// the next put.
const FormatVersion = 2

const (
	// envelopeMagic opens every envelope Put writes.
	envelopeMagic = "RSRC"
	// recordMagic opens every record ("RSR1").
	recordMagic = 0x31525352
	// headerLen is the fixed record header: magic, key length, data length,
	// CRC-32C of key‖data, each a little-endian uint32.
	headerLen = 16
	// segSuffix ends a segment's name; the name before it is the creation
	// time as 16 hex digits of Unix nanoseconds, so names sort by age.
	segSuffix = ".seg"
	// maxSegments is the segment count above which a store's first scan
	// folds every segment into its own.
	maxSegments = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is one cache directory. Construct with Open.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]loc // nil until the first scan
	segs  []*segment     // oldest first
	own   *segment       // the segment this store appends to, if any
	// ownInfo identifies own's file, to notice it was removed or replaced.
	ownInfo os.FileInfo

	hits   atomic.Int64
	misses atomic.Int64
	errs   atomic.Int64
}

// segment is one segment file, held open for reads (and, for the store's
// own segment, appends).
type segment struct {
	name  string
	stamp int64 // creation time in the name: orders segments
	f     *os.File
	// end is the end of the last complete record indexed; a refresh scans
	// from there.
	end int64
	// bad is set once a bad header ends the scan.
	bad bool
	// records and bytes count the complete records indexed; live and
	// liveBytes those that are still their key's index entry.
	records, live    int
	bytes, liveBytes int64
}

// loc locates one record.
type loc struct {
	seg        *segment
	off        int64
	klen, dlen uint32
}

func (l loc) size() int64 { return headerLen + int64(l.klen) + int64(l.dlen) }

// newer reports whether l is a later record than m: in a later segment, or
// else at a later offset.
func (l loc) newer(m loc) bool {
	if l.seg != m.seg {
		return l.seg.stamp > m.seg.stamp
	}
	return l.off > m.off
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

// ErrStale marks an entry written under an older format revision. A decode
// function handed to GetBytes returns it (possibly wrapped) to have the entry
// dropped quietly, as staleness rather than corruption.
var ErrStale = errors.New("rescache: stale entry format")

// Get loads the entry for key into v, reporting whether it was present and
// intact. Any defect — unreadable record, bad envelope, key mismatch, or
// value bytes v rejects — counts as a miss plus an error counter tick, and
// an entry of another format revision as a quiet miss; either way the
// entry leaves the index until the next Put heals it.
func (s *Store) Get(key string, v encoding.BinaryUnmarshaler) bool {
	return s.GetBytes(key, func(data []byte) error {
		val, err := openEnvelope(data, key)
		if err != nil {
			return err
		}
		return v.UnmarshalBinary(val)
	})
}

// openEnvelope checks the envelope of an entry stored under key and returns
// the value bytes it holds.
func openEnvelope(data []byte, key string) ([]byte, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("%w: a format-1 JSON envelope", ErrStale)
	}
	rest, ok := bytes.CutPrefix(data, []byte(envelopeMagic))
	if !ok {
		return nil, errors.New("rescache: entry has no envelope header")
	}
	format, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, errors.New("rescache: truncated envelope header")
	}
	if format != FormatVersion {
		return nil, fmt.Errorf("%w: format %d, want %d", ErrStale, format, FormatVersion)
	}
	rest = rest[n:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || klen > uint64(len(rest)-n) {
		return nil, errors.New("rescache: truncated envelope key")
	}
	rest = rest[n:]
	if string(rest[:klen]) != key {
		return nil, fmt.Errorf("rescache: entry holds key %q", rest[:klen])
	}
	return rest[klen:], nil
}

// bufs holds the buffers records are built in before their write and read
// into for their decoder, one per worker a sweep runs at once by default. A
// call borrows one and returns it before it returns, so puts and reads stop
// allocating once the buffers have grown to the records' size.
var bufs = reuse.NewPool[[]byte](runtime.GOMAXPROCS(0))

// GetBytes reads the raw entry stored under key and hands it to decode,
// reporting whether the entry was present and decode accepted it. A record
// that fails its checks, or that decode rejects, drops key from the index
// and counts as a miss: a decode error wrapping ErrStale quietly (a format
// bump), any other failure also ticks the error counter.
//
// data is lent to decode for the length of the call only: its buffer is
// reused by later reads, so decode must copy out whatever it keeps, as
// encoding.BinaryUnmarshaler requires of UnmarshalBinary.
func (s *Store) GetBytes(key string, decode func(data []byte) error) bool {
	buf := bufs.Get()
	defer bufs.Put(buf)
	data, l, found, err := s.fetch(key, buf)
	if found && err == nil {
		err = decode(data)
	}
	switch {
	case !found:
	case err == nil:
		s.hits.Add(1)
		return true
	default:
		s.mu.Lock()
		s.drop(key, l)
		s.mu.Unlock()
		if !errors.Is(err, ErrStale) {
			s.errs.Add(1)
		}
	}
	s.misses.Add(1)
	return false
}

// fetch reads the payload of key's indexed record into *buf, refreshing
// the index first if key is not in it. found reports whether the index held
// key; err whether its record failed to read or check.
func (s *Store) fetch(key string, buf *[]byte) (data []byte, l loc, found bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, found = s.index[key]; !found {
		s.refresh()
		if l, found = s.index[key]; !found {
			return nil, loc{}, false, nil
		}
	}
	data, err = l.read(key, buf)
	return data, l, true, err
}

// read loads the record at l into *buf, growing it if needed, and returns
// its payload, re-checking the header, the CRC and the key.
func (l loc) read(key string, buf *[]byte) ([]byte, error) {
	if int64(cap(*buf)) < l.size() {
		*buf = make([]byte, l.size())
	}
	rec := (*buf)[:l.size()]
	if _, err := l.seg.f.ReadAt(rec, l.off); err != nil {
		return nil, fmt.Errorf("rescache: read %s: %w", key, err)
	}
	klen, dlen, ok := parseHeader(rec)
	switch {
	case !ok || klen != l.klen || dlen != l.dlen:
		return nil, fmt.Errorf("rescache: record for %s has a changed header", key)
	case crc32.Checksum(rec[headerLen:], castagnoli) != binary.LittleEndian.Uint32(rec[12:]):
		return nil, fmt.Errorf("rescache: record for %s fails its CRC", key)
	case string(rec[headerLen:headerLen+klen]) != key:
		return nil, fmt.Errorf("rescache: record for %s holds another key", key)
	}
	return rec[headerLen+klen:], nil
}

// parseHeader checks a record header's magic and returns its lengths.
func parseHeader(h []byte) (klen, dlen uint32, ok bool) {
	if len(h) < headerLen || binary.LittleEndian.Uint32(h) != recordMagic {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(h[4:]), binary.LittleEndian.Uint32(h[8:]), true
}

// Put stores v's binary encoding under key, in an envelope that repeats the
// key so that an entry filed under the wrong key cannot serve the wrong
// value.
func (s *Store) Put(key string, v encoding.BinaryMarshaler) error {
	val, err := v.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rescache: encode %s: %w", key, err)
	}
	return s.PutFunc(key, func(b []byte) ([]byte, error) {
		b = binary.AppendUvarint(append(b, envelopeMagic...), FormatVersion)
		b = binary.AppendUvarint(b, uint64(len(key)))
		return append(append(b, key...), val...), nil
	})
}

// PutBytes appends a record of data under key to the store's segment, in
// one write, so readers (in this or any other process) only ever index
// complete records.
func (s *Store) PutBytes(key string, data []byte) error {
	return s.PutFunc(key, func(b []byte) ([]byte, error) { return append(b, data...), nil })
}

// PutFunc is PutBytes for data that appendData appends to b. The record is
// built in a pooled buffer, so an entry encoded this way is never copied
// before its write. appendData must not keep b.
func (s *Store) PutFunc(key string, appendData func(b []byte) ([]byte, error)) error {
	buf := bufs.Get()
	defer bufs.Put(buf)
	rec, err := encodeRecord((*buf)[:0], key, appendData)
	*buf = rec
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.refresh()
	}
	return s.appendRecord(key, rec)
}

// appendRecord writes one encoded record of key to the store's own segment
// and indexes it. It starts a new segment if the store has none, or if its
// file is no longer in place: removed (a fold), replaced, or not the length
// this store wrote. s.mu must be held.
func (s *Store) appendRecord(key string, rec []byte) error {
	if s.own != nil {
		fi, err := os.Stat(filepath.Join(s.dir, s.own.name))
		if err != nil || !os.SameFile(fi, s.ownInfo) || fi.Size() != s.own.end {
			s.own = nil
		}
	}
	if s.own == nil {
		if err := s.newSegment(); err != nil {
			return err
		}
	}
	seg := s.own
	if n, err := seg.f.Write(rec); err != nil || n != len(rec) {
		// The segment may now end in a torn record: nothing more may
		// follow it.
		s.own = nil
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("rescache: write %s: %w", key, err)
	}
	l := loc{seg: seg, off: seg.end, klen: uint32(len(key)), dlen: uint32(len(rec) - headerLen - len(key))}
	seg.end += l.size()
	s.add(key, l)
	return nil
}

// encodeRecord appends one record to b: header, key, and the data
// appendData appends.
func encodeRecord(b []byte, key string, appendData func(b []byte) ([]byte, error)) ([]byte, error) {
	start := len(b)
	b = append(b, make([]byte, headerLen)...) // filled in once key‖data are in
	b = append(b, key...)
	b, err := appendData(b)
	if err != nil {
		return b, err
	}
	dlen := len(b) - start - headerLen - len(key)
	if uint64(len(key)) > math.MaxUint32 || uint64(dlen) > math.MaxUint32 {
		return b, fmt.Errorf("rescache: entry %s is too large", key)
	}
	h := b[start:]
	binary.LittleEndian.PutUint32(h, recordMagic)
	binary.LittleEndian.PutUint32(h[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(h[8:], uint32(dlen))
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[headerLen:], castagnoli))
	return b, nil
}

// newSegment creates the store's own segment, named after every segment it
// knows so that its records win over theirs. s.mu must be held.
func (s *Store) newSegment() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	stamp := time.Now().UnixNano()
	if n := len(s.segs); n > 0 && stamp <= s.segs[n-1].stamp {
		stamp = s.segs[n-1].stamp + 1
	}
	for ; ; stamp++ {
		name := fmt.Sprintf("%016x%s", stamp, segSuffix)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("rescache: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("rescache: %w", err)
		}
		s.own, s.ownInfo = &segment{name: name, stamp: stamp, f: f}, fi
		s.segs = append(s.segs, s.own)
		return nil
	}
}

// add indexes the complete record l of key, unless the index already holds
// a newer record of key. s.mu must be held.
func (s *Store) add(key string, l loc) {
	l.seg.records++
	l.seg.bytes += l.size()
	if old, ok := s.index[key]; ok {
		if !l.newer(old) {
			return
		}
		old.seg.live--
		old.seg.liveBytes -= old.size()
	}
	s.index[key] = l
	l.seg.live++
	l.seg.liveBytes += l.size()
}

// drop removes key from the index if it still points at l. s.mu must be
// held.
func (s *Store) drop(key string, l loc) {
	if cur, ok := s.index[key]; ok && cur == l {
		delete(s.index, key)
		l.seg.live--
		l.seg.liveBytes -= l.size()
	}
}

// refresh brings the index up to date with the directory: it drops
// segments whose files are gone, opens new ones, and indexes the complete
// records past each segment's scanned end. The first refresh then folds.
// s.mu must be held.
func (s *Store) refresh() {
	first := s.index == nil
	if first {
		s.index = make(map[string]loc)
	}
	// A directory that cannot be listed holds no segments.
	entries, _ := os.ReadDir(s.dir)
	unknown := make(map[string]bool, len(entries))
	for _, e := range entries {
		unknown[e.Name()] = true
	}
	for _, seg := range append([]*segment(nil), s.segs...) {
		if !unknown[seg.name] {
			s.forget(seg)
		}
		delete(unknown, seg.name)
	}
	known := len(s.segs)
	for _, e := range entries {
		stamp, ok := segmentStamp(e.Name())
		if !ok || !unknown[e.Name()] || !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue // removed since the listing
		}
		s.segs = append(s.segs, &segment{name: e.Name(), stamp: stamp, f: f})
	}
	if len(s.segs) > known {
		sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].stamp < s.segs[j].stamp })
	}
	for _, seg := range s.segs {
		s.scan(seg)
	}
	if first {
		s.fold()
	}
}

// segmentStamp parses a segment file name's creation time.
func segmentStamp(name string) (int64, bool) {
	hexStamp, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(hexStamp) != 16 {
		return 0, false
	}
	stamp, err := strconv.ParseInt(hexStamp, 16, 64)
	return stamp, err == nil
}

// scan indexes the complete records past seg's scanned end. It reads
// headers and keys only. s.mu must be held.
func (s *Store) scan(seg *segment) {
	if seg.bad {
		return
	}
	fi, err := seg.f.Stat()
	if err != nil {
		return
	}
	size := fi.Size()
	var buf [headerLen + 128]byte // a header and, usually, its key
	for seg.end+headerLen <= size {
		n, _ := seg.f.ReadAt(buf[:], seg.end)
		if n < headerLen {
			return // unreadable for now: look again at the next refresh
		}
		klen, dlen, ok := parseHeader(buf[:n])
		if !ok {
			seg.bad = true
			return
		}
		l := loc{seg: seg, off: seg.end, klen: klen, dlen: dlen}
		if seg.end+l.size() > size {
			return // incomplete: look again at the next refresh
		}
		var key string
		if headerLen+int(klen) <= n {
			key = string(buf[headerLen : headerLen+klen])
		} else {
			kb := make([]byte, klen)
			if _, err := seg.f.ReadAt(kb, seg.end+headerLen); err != nil {
				return
			}
			key = string(kb)
		}
		s.add(key, l)
		seg.end += l.size()
	}
}

// fold bounds the directory: it folds every segment with more superseded
// than live bytes, and every segment when there are more than maxSegments.
// s.mu must be held.
func (s *Store) fold() {
	all := len(s.segs) > maxSegments
	for _, seg := range append([]*segment(nil), s.segs...) {
		if all || seg.bytes-seg.liveBytes > seg.liveBytes {
			if s.foldSegment(seg) != nil {
				return
			}
		}
	}
}

// foldSegment appends seg's live records to the store's own segment, in
// their order, then removes seg's file. A record that fails its checks is
// dropped, not copied. s.mu must be held.
func (s *Store) foldSegment(seg *segment) error {
	type entry struct {
		key string
		l   loc
	}
	var live []entry
	for key, l := range s.index {
		if l.seg == seg {
			live = append(live, entry{key, l})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].l.off < live[j].l.off })
	buf := bufs.Get()
	defer bufs.Put(buf)
	for _, e := range live {
		// The record's checks pass, so its bytes are copied as they are.
		if _, err := e.l.read(e.key, buf); err != nil {
			s.drop(e.key, e.l)
			continue
		}
		if err := s.appendRecord(e.key, (*buf)[:e.l.size()]); err != nil {
			return err
		}
	}
	// Should the removal fail, the file holds only records superseded by
	// the copies.
	os.Remove(filepath.Join(s.dir, seg.name))
	s.forget(seg)
	return nil
}

// forget drops seg's index entries and closes its file. s.mu must be held.
func (s *Store) forget(seg *segment) {
	for key, l := range s.index {
		if l.seg == seg {
			s.drop(key, l)
		}
	}
	for i, t := range s.segs {
		if t == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	if seg == s.own {
		s.own = nil
	}
	seg.f.Close()
}

// Segment describes one segment file as the store's index sees it.
type Segment struct {
	Name string
	// Records and Bytes count the complete records indexed from the
	// segment; Live and LiveBytes those that are still their key's entry.
	// The rest are superseded, or failed a read.
	Records, Live    int
	Bytes, LiveBytes int64
}

// Segments refreshes the index (a store's first refresh also folds) and
// describes each segment, oldest first.
func (s *Store) Segments() []Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refresh()
	out := make([]Segment, len(s.segs))
	for i, seg := range s.segs {
		out[i] = Segment{Name: seg.name, Records: seg.records, Live: seg.live, Bytes: seg.bytes, LiveBytes: seg.liveBytes}
	}
	return out
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts Gets served from an intact entry.
	Hits int64
	// Misses counts Gets that found no usable entry (including every
	// corrupt or stale one).
	Misses int64
	// Errors counts defective entries encountered (an unreadable record or
	// one failing its checks, a bad envelope or value, key mismatch) —
	// always also counted as misses.
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
