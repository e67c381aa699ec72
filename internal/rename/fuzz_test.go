package rename

import (
	"math/rand"
	"slices"
	"testing"

	"regsim/internal/isa"
)

// opSource feeds the stimulus driver its decisions: a seeded rng for the
// soak test, raw fuzz bytes for the native fuzz target. intn must return a
// value in [0, n).
type opSource interface {
	intn(n int) int
}

type rngSource struct{ rng *rand.Rand }

func (s rngSource) intn(n int) int { return s.rng.Intn(n) }

// byteSource reads decisions out of a fuzz input; exhausted input reads as
// zero, so every byte string decodes to some legal operation sequence.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) intn(n int) int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b) % n
}

// fuzzInst is one in-flight instruction in the stimulus driver.
type fuzzInst struct {
	seq        int64
	isBranch   bool
	hasDst     bool
	dst        isa.Reg
	newP, oldP Phys
	srcs       []Phys
	srcFiles   []isa.RegFile
	completed  bool
}

// fuzzMachine drives a Unit the way the pipeline does: in-order dispatch,
// out-of-order completion, in-order commit, and branch-triggered squashes
// that respect the machine's structural rules (a squash boundary is a branch
// completing *now*, so the frontier has not passed it).
//
// Every unit in units receives the same operation stream. units[0] decides
// the stream; any others must agree with it at every step — the same Rename
// returns, free-list order, free counts and Frees — which is how a unit
// keeping less bookkeeping is checked against one keeping all of it.
type fuzzMachine struct {
	t     *testing.T
	src   opSource
	units []*Unit

	seq      int64
	inflight []*fuzzInst // dispatched, not committed, program order
}

// each applies one operation to every unit.
func (m *fuzzMachine) each(op func(u *Unit)) {
	for _, u := range m.units {
		op(u)
	}
}

// agree checks every unit against units[0] and each unit's own invariants.
func (m *fuzzMachine) agree(when string) {
	m.t.Helper()
	ref := m.units[0]
	for i, u := range m.units {
		if err := u.CheckInvariants(); err != nil {
			m.t.Fatalf("%s: unit %d: %v", when, i, err)
		}
		if u.Frees != ref.Frees {
			m.t.Fatalf("%s: unit %d freed %d registers, reference %d", when, i, u.Frees, ref.Frees)
		}
		for f := range u.files {
			if got, want := u.files[f].freeList, ref.files[f].freeList; !slices.Equal(got, want) {
				m.t.Fatalf("%s: unit %d file %d free list %v, reference %v", when, i, f, got, want)
			}
			if got, want := u.FreeCount(isa.RegFile(f)), ref.FreeCount(isa.RegFile(f)); got != want {
				m.t.Fatalf("%s: unit %d file %d FreeCount %d, reference %d", when, i, f, got, want)
			}
		}
	}
}

func (m *fuzzMachine) frontier() int64 {
	for _, in := range m.inflight {
		if in.isBranch && !in.completed {
			return in.seq
		}
	}
	return NoFrontier
}

func (m *fuzzMachine) dispatch() {
	in := &fuzzInst{seq: m.seq}
	m.seq++
	file := isa.IntFile
	if m.src.intn(3) == 0 {
		file = isa.FPFile
	}
	// Sources: up to two random architectural registers (including zero).
	for n := m.src.intn(3); n > 0; n-- {
		r := isa.Reg{File: file, Idx: uint8(m.src.intn(isa.NumArchRegs))}
		p := m.units[0].Lookup(r)
		m.each(func(u *Unit) {
			if got := u.Lookup(r); got != p {
				m.t.Fatalf("seq %d: %v maps to phys %d, reference %d", in.seq, r, got, p)
			}
			u.AddReader(r.File, p)
		})
		in.srcs = append(in.srcs, p)
		in.srcFiles = append(in.srcFiles, r.File)
	}
	switch m.src.intn(10) {
	case 0, 1:
		in.isBranch = true // branches have no destination
	default:
		in.hasDst = true
		in.dst = isa.Reg{File: file, Idx: uint8(m.src.intn(isa.NumArchRegs - 1))}
		if !m.units[0].HasFree(in.dst.File) {
			// Roll the sources back (the real dispatch checks HasFree
			// before renaming anything; this driver checks after, so it
			// must undo its reader bumps).
			m.each(func(u *Unit) {
				for i, p := range in.srcs {
					u.OnReaderDone(in.srcFiles[i], p)
				}
			})
			m.seq--
			return
		}
		in.newP, in.oldP = m.units[0].Rename(in.seq, in.dst)
		for i, u := range m.units[1:] {
			if newP, oldP := u.Rename(in.seq, in.dst); newP != in.newP || oldP != in.oldP {
				m.t.Fatalf("seq %d: unit %d renamed %v to (%d, %d), reference (%d, %d)", in.seq, i+1, in.dst, newP, oldP, in.newP, in.oldP)
			}
		}
		m.each(func(u *Unit) { u.OnIssue(in.dst.File, in.newP) })
	}
	m.inflight = append(m.inflight, in)
}

func (m *fuzzMachine) completeOne() {
	// Complete a random uncompleted in-flight instruction.
	var candidates []*fuzzInst
	for _, in := range m.inflight {
		if !in.completed {
			candidates = append(candidates, in)
		}
	}
	if len(candidates) == 0 {
		return
	}
	in := candidates[m.src.intn(len(candidates))]
	m.complete(in)
}

func (m *fuzzMachine) complete(in *fuzzInst) {
	m.each(func(u *Unit) {
		for i, p := range in.srcs {
			u.OnReaderDone(in.srcFiles[i], p)
		}
		if in.hasDst {
			u.OnWriterDone(in.dst.File, in.newP, in.dst.Idx, in.seq)
		}
	})
	in.completed = true
}

func (m *fuzzMachine) commitOne() {
	if len(m.inflight) == 0 || !m.inflight[0].completed {
		return
	}
	in := m.inflight[0]
	m.inflight = m.inflight[1:]
	if in.hasDst {
		m.each(func(u *Unit) { u.OnCommitRetire(in.dst.File, in.oldP) })
	}
}

// mispredict completes the oldest uncompleted branch and squashes everything
// younger — the only legal squash shape in the machine.
func (m *fuzzMachine) mispredict() {
	idx := -1
	for i, in := range m.inflight {
		if in.isBranch && !in.completed {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	m.complete(m.inflight[idx])
	boundary := m.inflight[idx].seq
	m.each(func(u *Unit) {
		for i := len(m.inflight) - 1; i > idx; i-- {
			in := m.inflight[i]
			u.OnSquash(in.dst.File, in.dst.Idx, in.newP, in.oldP, in.hasDst, in.completed, in.srcFiles, in.srcs)
		}
		u.DropKillsAfter(boundary)
	})
	m.inflight = m.inflight[:idx+1]
}

func (m *fuzzMachine) step() {
	switch m.src.intn(10) {
	case 0, 1, 2, 3:
		m.dispatch()
	case 4, 5, 6:
		m.completeOne()
	case 7, 8:
		m.commitOne()
	case 9:
		m.mispredict()
	}
	m.endCycle()
	m.agree("step")
}

func (m *fuzzMachine) endCycle() {
	frontier := m.frontier()
	m.each(func(u *Unit) {
		u.SetFrontier(frontier)
		u.EndCycle()
	})
}

// drain completes and commits everything in flight; all transient registers
// must eventually return to the free list.
func (m *fuzzMachine) drain() {
	for _, in := range m.inflight {
		if !in.completed {
			m.complete(in)
		}
	}
	m.each(func(u *Unit) { u.SetFrontier(NoFrontier) })
	for len(m.inflight) > 0 {
		m.commitOne()
		m.endCycle()
	}
	m.agree("after drain")
	for i, u := range m.units {
		if u.Live(isa.IntFile) < 31 {
			m.t.Fatalf("unit %d: fewer than 31 live mappings after drain", i)
		}
	}
}

// newFuzzMachine builds the op-stream machine for one model and file size
// over the two units the core builds for that model: the tracked one, which
// keeps every piece of bookkeeping and is the reference, and the untracked
// one (under the precise model no categories, kills or chains; under the
// imprecise model no categories).
func newFuzzMachine(t *testing.T, src opSource, model Model, regs int) *fuzzMachine {
	m := &fuzzMachine{t: t, src: src}
	for _, track := range []bool{true, false} {
		u, err := NewUnit(regs, model, track)
		if err != nil {
			t.Fatal(err)
		}
		m.units = append(m.units, u)
	}
	return m
}

// TestFuzzRenameUnit drives random but structurally legal operation
// sequences against both freeing models and small register files, checking
// the unit's invariants after every step. Panics inside the unit (double
// free, reader underflow, chain mismatch) fail the test too. Each stream
// also drives the untracked unit the core builds for the model, which must
// allocate and free exactly as the fully kept one does (see fuzzMachine).
func TestFuzzRenameUnit(t *testing.T) {
	seeds := 30
	steps := 3000
	if testing.Short() {
		seeds, steps = 8, 800
	}
	for seed := 0; seed < seeds; seed++ {
		for _, model := range []Model{Precise, Imprecise} {
			for _, regs := range []int{32, 34, 48} {
				src := rngSource{rand.New(rand.NewSource(int64(seed)*1000 + int64(regs)))}
				m := newFuzzMachine(t, src, model, regs)
				for i := 0; i < steps; i++ {
					m.step()
				}
				m.drain()
			}
		}
	}
}

// FuzzRenameOps is the native fuzz form of the same driver: the input bytes
// pick the freeing model, the register-file size, and every operation, so
// coverage guidance explores dispatch/complete/commit/squash interleavings
// the seeded soak never reaches.
func FuzzRenameOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 9, 9, 9, 0, 0, 0, 7, 7, 4, 4, 9, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		model := []Model{Precise, Imprecise}[src.intn(2)]
		regs := []int{32, 34, 48}[src.intn(3)]
		m := newFuzzMachine(t, src, model, regs)
		for src.pos < len(src.data) {
			m.step()
		}
		m.drain()
	})
}
