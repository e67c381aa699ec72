package rename

import (
	"fmt"

	"regsim/internal/isa"
	"regsim/internal/reuse"
)

// Watermark returns a file's allocation watermark: the highest physical
// register number Rename has ever handed out (numRenameable-1 at reset).
// Sibling sharing across register-file sizes keys off it (see
// internal/exper/siblings.go).
func (u *Unit) Watermark(f isa.RegFile) int { return int(u.fs(f).maxPhys) }

// RegSnap is one physical register's serialized lifecycle state. The
// pendFree flag is absent by design: snapshots are taken at cycle
// boundaries, after EndCycle has drained the pending-free list.
type RegSnap struct {
	Live       bool     `json:"live,omitempty"`
	Cat        Category `json:"cat,omitempty"`
	WriterDone bool     `json:"wd,omitempty"`
	Readers    int32    `json:"rd,omitempty"`
	Killed     bool     `json:"k,omitempty"`
	Virt       uint8    `json:"v,omitempty"`
}

// ChainSnap is one outstanding mapping of a virtual register.
type ChainSnap struct {
	Seq  int64 `json:"seq"`
	Phys Phys  `json:"phys"`
}

// KillSnap is one pending redefine kill.
type KillSnap struct {
	File uint8 `json:"file"`
	Virt uint8 `json:"virt"`
	Seq  int64 `json:"seq"`
}

// FileSnap is one register file's serialized state.
type FileSnap struct {
	N        int                          `json:"n"`
	MapTable [isa.NumArchRegs]Phys        `json:"map"`
	FreeList []Phys                       `json:"free"`
	Regs     []RegSnap                    `json:"regs"`
	Chains   [isa.NumArchRegs][]ChainSnap `json:"chains"`
	LiveCat  [NumCategories]int           `json:"liveCat"`
	Live     int                          `json:"live"`
	WaitHead []int64                      `json:"waitHead"`
	MaxPhys  Phys                         `json:"maxPhys"`
}

// Snapshot is the rename unit's full serialized state, sufficient to resume
// bit-identically. It is only valid at a cycle boundary (EndCycle applied),
// which Unit.Snapshot asserts.
type Snapshot struct {
	Model    Model       `json:"model"`
	Frontier int64       `json:"frontier"`
	Kills    []KillSnap  `json:"kills,omitempty"`
	KillsMin int64       `json:"killsMin"`
	Frees    int64       `json:"frees"`
	Files    [2]FileSnap `json:"files"`
}

// SnapshotInto captures the unit's state into s, reusing its slices. It
// panics if called mid-cycle (with frees still pending): the core only
// snapshots at cycle boundaries, so a pending free here is a sequencing
// bug, not a runtime condition.
func (u *Unit) SnapshotInto(s *Snapshot) {
	s.Model, s.Frontier, s.KillsMin, s.Frees = u.model, u.frontier, u.killsMin, u.Frees
	s.Kills = reuse.Slice(s.Kills, len(u.kills))
	for i, k := range u.kills {
		s.Kills[i] = KillSnap{File: uint8(k.file), Virt: k.virt, Seq: k.seq}
	}
	for f := range u.files {
		fs := &u.files[f]
		if len(fs.pending) != 0 {
			panic("rename: Snapshot with frees pending (not at a cycle boundary)")
		}
		fsn := &s.Files[f]
		fsn.N = fs.n
		fsn.MapTable = fs.mapTable
		fsn.FreeList = reuse.Copy(fsn.FreeList, fs.freeList)
		fsn.Regs = reuse.Slice(fsn.Regs, int(fs.maxPhys)+1)
		for p := range fsn.Regs {
			r := &fs.regs[p]
			if r.pendFree {
				panic("rename: Snapshot with frees pending (not at a cycle boundary)")
			}
			fsn.Regs[p] = RegSnap{
				Live: r.live, Cat: r.cat, WriterDone: r.writerDone,
				Readers: r.readers, Killed: r.killed, Virt: r.virt,
			}
		}
		for v := range fs.chains {
			chain := reuse.Slice(fsn.Chains[v], len(fs.chains[v]))
			for i, e := range fs.chains[v] {
				chain[i] = ChainSnap{Seq: e.seq, Phys: e.phys}
			}
			fsn.Chains[v] = chain
		}
		fsn.LiveCat = fs.liveCat
		fsn.Live = fs.live
		fsn.WaitHead = reuse.Copy(fsn.WaitHead, fs.waitHead[:int(fs.maxPhys)+1])
		fsn.MaxPhys = fs.maxPhys
	}
}

// Validate checks a snapshot's structural sanity so a decoded (possibly
// hostile or corrupt) snapshot cannot panic RestoreUnit.
func (s *Snapshot) Validate() error {
	if s.Model != Precise && s.Model != Imprecise {
		return fmt.Errorf("rename snapshot: unknown model %d", s.Model)
	}
	for f := range s.Files {
		fsn := &s.Files[f]
		if fsn.N < MinRegsPerFile {
			return fmt.Errorf("rename snapshot: file %d has %d regs (< %d)", f, fsn.N, MinRegsPerFile)
		}
		if fsn.MaxPhys < numRenameable-1 || int(fsn.MaxPhys) >= fsn.N {
			return fmt.Errorf("rename snapshot: file %d watermark %d out of range [%d, %d)", f, fsn.MaxPhys, numRenameable-1, fsn.N)
		}
		if len(fsn.Regs) != int(fsn.MaxPhys)+1 || len(fsn.WaitHead) != int(fsn.MaxPhys)+1 {
			return fmt.Errorf("rename snapshot: file %d reg/waiter tables sized %d/%d, want %d", f, len(fsn.Regs), len(fsn.WaitHead), int(fsn.MaxPhys)+1)
		}
		for p, r := range fsn.Regs {
			if r.Cat >= NumCategories {
				return fmt.Errorf("rename snapshot: file %d phys %d has category %d", f, p, r.Cat)
			}
			if r.Readers < 0 {
				return fmt.Errorf("rename snapshot: file %d phys %d has %d readers", f, p, r.Readers)
			}
			if int(r.Virt) >= numRenameable && r.Live {
				return fmt.Errorf("rename snapshot: file %d phys %d backs virtual %d", f, p, r.Virt)
			}
		}
		for _, p := range fsn.FreeList {
			if p < 0 || int(p) >= fsn.N {
				return fmt.Errorf("rename snapshot: file %d free-list phys %d out of range", f, p)
			}
		}
		for v := 0; v < isa.NumArchRegs; v++ {
			for _, e := range fsn.Chains[v] {
				if e.Phys < 0 || e.Phys > fsn.MaxPhys {
					return fmt.Errorf("rename snapshot: file %d chain of v%d holds phys %d beyond watermark", f, v, e.Phys)
				}
			}
		}
		for v := 0; v < numRenameable; v++ {
			p := fsn.MapTable[v]
			if p < 0 || p > fsn.MaxPhys {
				return fmt.Errorf("rename snapshot: file %d maps v%d to phys %d beyond watermark", f, v, p)
			}
		}
	}
	return nil
}

// RestoreUnit rebuilds a rename unit from a snapshot. regsPerFile, model
// and track must match the snapshot's: a snapshot resumes only under the
// configuration it was taken in, and carries only the bookkeeping that
// configuration keeps (no kills or mapping chains from an untracked precise
// unit).
func RestoreUnit(s *Snapshot, regsPerFile int, model Model, track bool) (*Unit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if model != s.Model {
		return nil, fmt.Errorf("rename: cannot restore a %s snapshot into a %s unit", s.Model, model)
	}
	u := emptyUnit(model, track)
	u.frontier, u.killsMin, u.Frees = s.Frontier, s.KillsMin, s.Frees
	if !u.killsOn && len(s.Kills) != 0 {
		return nil, fmt.Errorf("rename: snapshot carries %d pending kills for a unit that keeps none", len(s.Kills))
	}
	for _, k := range s.Kills {
		u.kills = append(u.kills, pendingKill{file: isa.RegFile(k.File & 1), virt: k.Virt, seq: k.Seq})
	}
	for f := range u.files {
		fsn := &s.Files[f]
		if fsn.N != regsPerFile {
			return nil, fmt.Errorf("rename: file %d snapshot has %d registers, want %d", f, fsn.N, regsPerFile)
		}
		fs := &u.files[f]
		fs.n = regsPerFile
		fs.mapTable = fsn.MapTable
		fs.regs = make([]physReg, regsPerFile)
		for p, r := range fsn.Regs {
			fs.regs[p] = physReg{
				live: r.Live, cat: r.Cat, writerDone: r.WriterDone,
				readers: r.Readers, killed: r.Killed, virt: r.Virt,
			}
		}
		for v := range fsn.Chains {
			if !u.killsOn && len(fsn.Chains[v]) != 0 {
				return nil, fmt.Errorf("rename: file %d snapshot carries a mapping chain for v%d in a unit that keeps none", f, v)
			}
			for _, e := range fsn.Chains[v] {
				fs.chains[v] = append(fs.chains[v], chainEntry{seq: e.Seq, phys: e.Phys})
			}
			for _, e := range fs.chains[v] {
				if !fs.regs[e.phys].killed {
					break
				}
				fs.killedN[v]++
			}
		}
		fs.liveCat = fsn.LiveCat
		fs.live = fsn.Live
		fs.maxPhys = fsn.MaxPhys
		// The registers above the watermark were never allocated, so they
		// must form the free list's front prefix [n-1 .. maxPhys+1] in
		// descending order. A resumed run's watermark decides which sibling
		// configurations its result answers (internal/exper/siblings.go rests
		// on this invariant), so a snapshot that breaks it is refused.
		prefix := fsn.N - 1 - int(fsn.MaxPhys)
		if prefix > len(fsn.FreeList) {
			return nil, fmt.Errorf("rename: file %d free list shorter (%d) than its untouched prefix (%d)", f, len(fsn.FreeList), prefix)
		}
		for p := range fsn.FreeList[:prefix] {
			if want := Phys(fsn.N - 1 - p); fsn.FreeList[p] != want {
				return nil, fmt.Errorf("rename: file %d free-list prefix entry %d is phys %d, want %d", f, p, fsn.FreeList[p], want)
			}
		}
		fs.freeList = append(make([]Phys, 0, regsPerFile-numRenameable), fsn.FreeList...)
		fs.waitHead = make([]int64, regsPerFile)
		copy(fs.waitHead, fsn.WaitHead)
		for p := int(fsn.MaxPhys) + 1; p < regsPerFile; p++ {
			fs.waitHead[p] = NoWaiter
		}
	}
	return u, nil
}
