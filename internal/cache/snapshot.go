package cache

import (
	"fmt"

	"regsim/internal/reuse"
)

// LineSnap is one valid tag-store line. Invalid lines are omitted: a cold
// 64 KiB cache is mostly empty, and the LRU clock value of an invalid line
// is never read.
type LineSnap struct {
	Index   int    `json:"i"`
	Tag     uint64 `json:"tag"`
	LastUse int64  `json:"use"`
}

// FillSnap is one in-flight block fetch, in arrival order. The done flag is
// absent by design: completed fills leave the arrival queue inside Tick, so
// at a cycle boundary every queued fill is still pending.
type FillSnap struct {
	LineAddr uint64 `json:"la"`
	ArriveAt int64  `json:"at"`
	Waiters  int    `json:"w"`
}

// DSnap is a data cache's full serialized state. The configuration is not
// carried: it is an experiment parameter the restorer supplies, and the
// machine-level checkpoint validates config equality before restoring.
type DSnap struct {
	Lines     []LineSnap `json:"lines,omitempty"`
	BusyUntil int64      `json:"busyUntil,omitempty"`
	Arrivals  []FillSnap `json:"arrivals,omitempty"`
	UseClock  int64      `json:"useClock"`
	Stats     Stats      `json:"stats"`
}

// SnapshotInto captures the data cache's state into s, reusing its slices.
func (c *DCache) SnapshotInto(s *DSnap) {
	s.BusyUntil, s.UseClock, s.Stats = c.busyUntil, c.useClock, c.stats
	s.Lines = validLines(s.Lines, c.lines)
	s.Arrivals = reuse.Slice(s.Arrivals, len(c.arrivals))
	for i, f := range c.arrivals {
		s.Arrivals[i] = FillSnap{LineAddr: f.lineAddr, ArriveAt: f.arriveAt, Waiters: f.waiters}
	}
}

// validLines returns the valid lines of a tag store, filled into ls.
func validLines(ls []LineSnap, lines []line) []LineSnap {
	ls = ls[:0]
	for i := range lines {
		if l := &lines[i]; l.valid {
			ls = append(ls, LineSnap{Index: i, Tag: l.tag, LastUse: l.lastUse})
		}
	}
	return reuse.Slice(ls, len(ls))
}

// Validate checks a decoded snapshot against a cache geometry.
func (s *DSnap) Validate(cfg Config) error {
	if err := cfg.check(); err != nil {
		return err
	}
	nlines := cfg.SizeBytes / cfg.LineBytes
	for _, l := range s.Lines {
		if l.Index < 0 || l.Index >= nlines {
			return fmt.Errorf("dcache snapshot: line index %d out of range [0, %d)", l.Index, nlines)
		}
	}
	last := int64(0)
	for i, f := range s.Arrivals {
		if f.Waiters < 0 {
			return fmt.Errorf("dcache snapshot: fill %d has %d waiters", i, f.Waiters)
		}
		if f.ArriveAt < last {
			return fmt.Errorf("dcache snapshot: arrival queue out of order at entry %d", i)
		}
		last = f.ArriveAt
	}
	return nil
}

// RestoreData rebuilds a data cache from a snapshot under the given
// configuration (which must match the one the snapshot was taken under; the
// core-level checkpoint enforces this).
func RestoreData(cfg Config, s *DSnap) (*DCache, error) {
	if err := s.Validate(cfg); err != nil {
		return nil, err
	}
	c := NewData(cfg)
	for _, l := range s.Lines {
		c.lines[l.Index] = line{valid: true, tag: l.Tag, lastUse: l.LastUse}
	}
	c.busyUntil = s.BusyUntil
	c.useClock = s.UseClock
	c.stats = s.Stats
	for _, fs := range s.Arrivals {
		f := &Fill{lineAddr: fs.LineAddr, arriveAt: fs.ArriveAt, waiters: fs.Waiters}
		c.arrivals = append(c.arrivals, f)
		if cfg.Kind == LockupFree {
			c.outstanding[fs.LineAddr] = f
		}
	}
	return c, nil
}

// FillAt returns the in-flight fill for a line address, or nil if none is
// outstanding. The core uses it to re-link restored loads to their fills;
// a load whose fill already arrived restores with no fill reference, which
// is equivalent (the only post-issue use of the reference is CancelWaiter,
// a no-op on completed fills).
func (c *DCache) FillAt(lineAddr uint64) *Fill {
	for _, f := range c.arrivals {
		if f.lineAddr == lineAddr {
			return f
		}
	}
	return nil
}

// LineAddrOf returns the line address of a fill (for serialization).
func (f *Fill) LineAddrOf() uint64 { return f.lineAddr }

// ISnap is the instruction cache's full serialized state.
type ISnap struct {
	Lines    []LineSnap `json:"lines,omitempty"`
	UseClock int64      `json:"useClock"`
	LastLA   uint64     `json:"lastLA"`
	LastOK   bool       `json:"lastOK"`
	Accesses int64      `json:"accesses"`
	Misses   int64      `json:"misses"`
}

// SnapshotInto captures the instruction cache's state into s, reusing its
// slice.
func (c *ICache) SnapshotInto(s *ISnap) {
	s.UseClock, s.Accesses, s.Misses = c.useClock, c.Accesses, c.Misses
	s.LastLA, s.LastOK = 0, false
	if c.lastLA != noLine {
		s.LastLA, s.LastOK = c.lastLA, true
	}
	s.Lines = validLines(s.Lines, c.lines)
}

// RestoreICache rebuilds an instruction cache with the given miss penalty
// from a snapshot.
func RestoreICache(missPenalty int, s *ISnap) (*ICache, error) {
	c := NewICache(missPenalty)
	for _, l := range s.Lines {
		if l.Index < 0 || l.Index >= len(c.lines) {
			return nil, fmt.Errorf("icache snapshot: line index %d out of range [0, %d)", l.Index, len(c.lines))
		}
		c.lines[l.Index] = line{valid: true, tag: l.Tag, lastUse: l.LastUse}
	}
	c.useClock = s.UseClock
	if s.LastOK {
		c.lastLA = s.LastLA
	}
	c.Accesses, c.Misses = s.Accesses, s.Misses
	return c, nil
}
