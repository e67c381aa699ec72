package bpred

import "fmt"

// Snapshot is the predictor's full serialized state. The tables are copied
// whole: 3×2048 two-bit counters is 6 KiB, small next to the rest of a
// machine checkpoint, and whole-table capture is trivially bit-exact.
type Snapshot struct {
	Kind     Kind    `json:"kind"`
	Bimodal  []uint8 `json:"bimodal"`
	Global   []uint8 `json:"global"`
	Selector []uint8 `json:"selector"`
	Hist     History `json:"hist"`
}

// SnapshotInto captures the predictor state into s, reusing its tables.
func (p *Predictor) SnapshotInto(s *Snapshot) {
	s.Kind, s.Hist = p.kind, p.hist
	s.Bimodal = append(s.Bimodal[:0], p.bimodal[:]...)
	s.Global = append(s.Global[:0], p.global[:]...)
	s.Selector = append(s.Selector[:0], p.selector[:]...)
}

// Validate checks a decoded snapshot's structural sanity.
func (s *Snapshot) Validate() error {
	if s.Kind > GshareOnly {
		return fmt.Errorf("bpred snapshot: unknown kind %d", s.Kind)
	}
	if len(s.Bimodal) != TableEntries || len(s.Global) != TableEntries || len(s.Selector) != TableEntries {
		return fmt.Errorf("bpred snapshot: table sizes %d/%d/%d, want %d", len(s.Bimodal), len(s.Global), len(s.Selector), TableEntries)
	}
	return nil
}

// Restore rebuilds a predictor from a snapshot.
func Restore(s *Snapshot) (*Predictor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{kind: s.Kind, hist: s.Hist & historyMask}
	copy(p.bimodal[:], s.Bimodal)
	copy(p.global[:], s.Global)
	copy(p.selector[:], s.Selector)
	return p, nil
}
