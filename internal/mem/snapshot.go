package mem

import (
	"cmp"
	"fmt"
	"slices"

	"regsim/internal/reuse"
)

// PageSnap is one touched 4 KiB page: its page number and full word image.
type PageSnap struct {
	Page  uint64   `json:"page"`
	Words []uint64 `json:"words"`
}

// Snap is a memory's full serialized image, pages sorted by page number so
// the encoding is deterministic regardless of map iteration order.
type Snap struct {
	Pages []PageSnap `json:"pages,omitempty"`
}

// SnapshotInto captures a deep copy of the memory image into s, reusing its
// pages' word buffers.
func (m *Memory) SnapshotInto(s *Snap) {
	s.Pages = reuse.Slice(s.Pages, len(m.pages))
	i := 0
	for k, p := range m.pages {
		ps := &s.Pages[i]
		ps.Page, ps.Words = k, append(ps.Words[:0], p[:]...)
		i++
	}
	slices.SortFunc(s.Pages, func(a, b PageSnap) int { return cmp.Compare(a.Page, b.Page) })
}

// Validate checks a decoded snapshot's structural sanity.
func (s *Snap) Validate() error {
	for i, p := range s.Pages {
		if len(p.Words) != pageWords {
			return fmt.Errorf("mem snapshot: page %d holds %d words, want %d", i, len(p.Words), pageWords)
		}
	}
	return nil
}

// Restore rebuilds a memory from a snapshot (deep copy: the snapshot stays
// reusable).
func Restore(s *Snap) (*Memory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := New()
	for _, ps := range s.Pages {
		p := new(page)
		copy(p[:], ps.Words)
		m.pages[ps.Page] = p
	}
	return m, nil
}
