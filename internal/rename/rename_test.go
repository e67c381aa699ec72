package rename

import (
	"testing"

	"regsim/internal/isa"
)

func newUnit(t *testing.T, regs int, model Model) *Unit {
	t.Helper()
	u, err := NewUnit(regs, model, true)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func check(t *testing.T, u *Unit) {
	t.Helper()
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewUnitMinimum(t *testing.T) {
	if _, err := NewUnit(31, Precise, true); err == nil {
		t.Error("31 registers accepted (deadlocks)")
	}
	u := newUnit(t, 32, Precise)
	// 31 renameable virtual registers consume 31 physical; one free.
	if u.FreeCount(isa.IntFile) != 1 || u.FreeCount(isa.FPFile) != 1 {
		t.Errorf("free counts = %d/%d, want 1/1", u.FreeCount(isa.IntFile), u.FreeCount(isa.FPFile))
	}
	if u.Live(isa.IntFile) != 31 {
		t.Errorf("initial live = %d, want 31", u.Live(isa.IntFile))
	}
	check(t, u)
}

func TestInitialMappingsReady(t *testing.T) {
	u := newUnit(t, 64, Precise)
	for v := uint8(0); v < 31; v++ {
		p := u.Lookup(isa.Reg{File: isa.IntFile, Idx: v})
		if p == PhysZero {
			t.Fatalf("v%d unmapped", v)
		}
		if !u.Ready(isa.IntFile, p) {
			t.Errorf("initial mapping of v%d not ready", v)
		}
	}
	if u.Lookup(isa.Reg{File: isa.IntFile, Idx: isa.ZeroReg}) != PhysZero {
		t.Error("zero register mapped")
	}
	if !u.Ready(isa.IntFile, PhysZero) {
		t.Error("zero register not ready")
	}
}

// driver mimics the core's call sequence for single instructions so the
// freeing disciplines can be tested in isolation.
type driver struct {
	u   *Unit
	seq int64
}

type dinst struct {
	seq      int64
	dst      isa.Reg
	newP     Phys
	oldP     Phys
	srcs     []Phys
	srcFiles []isa.RegFile
	done     bool
}

// dispatch renames one instruction writing dst and reading srcs.
func (d *driver) dispatch(dst isa.Reg, srcs ...isa.Reg) *dinst {
	in := &dinst{seq: d.seq, dst: dst}
	d.seq++
	for _, s := range srcs {
		p := d.u.Lookup(s)
		d.u.AddReader(s.File, p)
		in.srcs = append(in.srcs, p)
		in.srcFiles = append(in.srcFiles, s.File)
	}
	in.newP, in.oldP = d.u.Rename(in.seq, dst)
	return in
}

func (d *driver) complete(in *dinst) {
	for i, p := range in.srcs {
		d.u.OnReaderDone(in.srcFiles[i], p)
	}
	d.u.OnWriterDone(in.dst.File, in.newP, in.dst.Idx, in.seq)
	in.done = true
}

func (d *driver) squash(in *dinst) {
	d.u.OnSquash(in.dst.File, in.dst.Idx, in.newP, in.oldP, true, in.done, in.srcFiles, in.srcs)
}

var r1 = isa.Reg{File: isa.IntFile, Idx: 1}
var r2 = isa.Reg{File: isa.IntFile, Idx: 2}

// TestPreciseFreesAtRetireCommit: under precise exceptions, the old mapping
// frees exactly when the redefining instruction commits, and the register is
// reusable only the next cycle.
func TestPreciseFreesAtRetireCommit(t *testing.T) {
	u := newUnit(t, 64, Precise)
	d := &driver{u: u, seq: 10}
	free0 := u.FreeCount(isa.IntFile)

	i1 := d.dispatch(r1)
	i2 := d.dispatch(r1) // retires i1's mapping
	if i2.oldP != i1.newP {
		t.Fatalf("retired mapping %d, want %d", i2.oldP, i1.newP)
	}
	d.complete(i1)
	d.complete(i2)
	u.SetFrontier(NoFrontier)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-2 {
		t.Error("precise model freed before commit")
	}
	u.OnCommitRetire(isa.IntFile, i2.oldP)
	// Freed registers are not allocatable until EndCycle.
	if u.FreeCount(isa.IntFile) != free0-2 {
		t.Error("freed register allocatable in the same cycle")
	}
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-1 {
		t.Error("retired mapping not freed at commit")
	}
	check(t, u)
}

// TestImpreciseConditions: each of the paper's three conditions gates the
// free — writer completion, reader completion, and a completed later writer
// with all preceding conditional branches complete.
func TestImpreciseConditions(t *testing.T) {
	u := newUnit(t, 64, Imprecise)
	d := &driver{u: u, seq: 10}
	free0 := u.FreeCount(isa.IntFile)

	i1 := d.dispatch(r1)     // writer of the mapping under test
	rd := d.dispatch(r2, r1) // a reader of i1's value
	i2 := d.dispatch(r1)     // the redefiner (killer)

	// Redefiner completes, but a conditional branch older than it is
	// outstanding: no kill.
	d.complete(i2)
	u.SetFrontier(11) // oldest uncompleted branch at seq 11 < i2.seq
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-3 {
		t.Fatal("freed with an uncompleted preceding branch")
	}

	// Branch frontier passes i2: i2's completion kills ALL older mappings
	// of r1. The reset-time mapping (completed writer, no readers) frees;
	// i1's mapping is killed but its writer has not completed.
	u.SetFrontier(NoFrontier)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-2 {
		t.Fatal("initial mapping of r1 not freed / i1 freed before the writer completed")
	}

	// Writer completes; the reader is still outstanding.
	d.complete(i1)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-2 {
		t.Fatal("freed with an uncompleted reader")
	}

	// Reader completes: all three conditions hold; free applies at the
	// end of the cycle.
	d.complete(rd)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0-1 {
		t.Fatalf("not freed once all imprecise conditions held (free=%d, want %d)",
			u.FreeCount(isa.IntFile), free0-1)
	}
	check(t, u)
}

// TestImpreciseKillsAllOlderMappings: "the writer of a physical register can
// cause the killing of any mappings created by preceding instructions,
// rather than only the preceding mapping."
func TestImpreciseKillsAllOlderMappings(t *testing.T) {
	u := newUnit(t, 64, Imprecise)
	d := &driver{u: u, seq: 10}
	free0 := u.FreeCount(isa.IntFile)

	i1 := d.dispatch(r1)
	i2 := d.dispatch(r1)
	i3 := d.dispatch(r1)
	d.complete(i1)
	d.complete(i2)
	u.SetFrontier(NoFrontier)
	u.EndCycle()
	// i2's completion kills ALL older mappings of r1: the reset-time one
	// and i1's (both writers completed, no readers). i2's own mapping
	// awaits a later writer.
	if u.FreeCount(isa.IntFile) != free0-1 {
		t.Fatalf("after i2 completes: free=%d, want %d", u.FreeCount(isa.IntFile), free0-1)
	}
	// i3's completion kills i2's mapping — the "any later writer" rule.
	d.complete(i3)
	u.SetFrontier(NoFrontier)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0 {
		t.Fatalf("after i3 completes: free=%d, want %d", u.FreeCount(isa.IntFile), free0)
	}
	check(t, u)
}

// TestImpreciseFreesEarlierThanPrecise is the paper's central comparison in
// miniature: with completion but no commit, imprecise frees and precise
// does not.
func TestImpreciseFreesEarlierThanPrecise(t *testing.T) {
	counts := map[Model]int{}
	for _, model := range []Model{Precise, Imprecise} {
		u := newUnit(t, 64, model)
		d := &driver{u: u, seq: 10}
		i1 := d.dispatch(r1)
		i2 := d.dispatch(r1)
		d.complete(i1)
		d.complete(i2)
		u.SetFrontier(NoFrontier)
		u.EndCycle()
		counts[model] = u.FreeCount(isa.IntFile)
	}
	if counts[Imprecise] <= counts[Precise] {
		t.Errorf("imprecise free count %d not greater than precise %d",
			counts[Imprecise], counts[Precise])
	}
}

func TestSquashRestoresMapping(t *testing.T) {
	u := newUnit(t, 64, Precise)
	d := &driver{u: u, seq: 10}
	before := u.Lookup(r1)
	free0 := u.FreeCount(isa.IntFile)

	i1 := d.dispatch(r1, r2)
	i2 := d.dispatch(r1, r1)
	if u.Lookup(r1) != i2.newP {
		t.Fatal("map table not updated")
	}
	// Squash newest-first.
	d.squash(i2)
	if u.Lookup(r1) != i1.newP {
		t.Fatal("squash did not restore the previous mapping")
	}
	d.squash(i1)
	if u.Lookup(r1) != before {
		t.Fatal("squash did not restore the original mapping")
	}
	u.DropKillsAfter(9)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0 {
		t.Errorf("squash leaked registers: free=%d, want %d", u.FreeCount(isa.IntFile), free0)
	}
	check(t, u)
}

func TestSquashCompletedInstruction(t *testing.T) {
	u := newUnit(t, 64, Precise)
	d := &driver{u: u, seq: 10}
	free0 := u.FreeCount(isa.IntFile)

	i1 := d.dispatch(r1, r2)
	d.complete(i1) // reader counts already decremented
	d.squash(i1)
	u.DropKillsAfter(9)
	u.EndCycle()
	if u.FreeCount(isa.IntFile) != free0 {
		t.Error("completed-then-squashed instruction leaked a register")
	}
	check(t, u)
}

func TestCategoriesTrackLifecycle(t *testing.T) {
	u := newUnit(t, 64, Precise)
	d := &driver{u: u, seq: 10}
	catOf := func(c Category) int { return u.LiveByCat(isa.IntFile)[c] }

	base := catOf(CatWaitImprecise) // the 31 initial mappings
	i1 := d.dispatch(r1)
	if catOf(CatInQueue) != 1 {
		t.Errorf("in-queue = %d", catOf(CatInQueue))
	}
	u.OnIssue(isa.IntFile, i1.newP)
	if catOf(CatInQueue) != 0 || catOf(CatInFlight) != 1 {
		t.Errorf("in-flight = %d", catOf(CatInFlight))
	}
	d.complete(i1)
	if catOf(CatInFlight) != 0 || catOf(CatWaitImprecise) != base+1 {
		t.Errorf("wait-imprecise = %d", catOf(CatWaitImprecise))
	}
	// Retire + complete the redefiner: i1's mapping satisfies the
	// imprecise conditions and moves to wait-precise.
	i2 := d.dispatch(r1)
	u.OnIssue(isa.IntFile, i2.newP)
	d.complete(i2)
	u.SetFrontier(NoFrontier)
	// Both the reset-time mapping of r1 (killed by i1's completion) and
	// i1's mapping (killed by i2's) now satisfy the imprecise conditions.
	if catOf(CatWaitPrecise) != 2 {
		t.Errorf("wait-precise = %d", catOf(CatWaitPrecise))
	}
	u.OnCommitRetire(isa.IntFile, i1.oldP) // i1 commits first, in order
	u.OnCommitRetire(isa.IntFile, i2.oldP)
	if catOf(CatWaitPrecise) != 0 {
		t.Errorf("wait-precise after free = %d", catOf(CatWaitPrecise))
	}
	check(t, u)
}

func TestZeroRegisterNeverRenamed(t *testing.T) {
	u := newUnit(t, 64, Precise)
	defer func() {
		if recover() == nil {
			t.Error("renaming the zero register did not panic")
		}
	}()
	u.Rename(1, isa.Reg{File: isa.IntFile, Idx: isa.ZeroReg})
}

func TestReaderTrackingSkipsZero(t *testing.T) {
	u := newUnit(t, 64, Imprecise)
	u.AddReader(isa.IntFile, PhysZero)
	u.OnReaderDone(isa.IntFile, PhysZero) // no underflow panic
	check(t, u)
}

func TestFilesIndependent(t *testing.T) {
	u := newUnit(t, 64, Precise)
	d := &driver{u: u, seq: 10}
	f1 := isa.Reg{File: isa.FPFile, Idx: 1}
	freeInt := u.FreeCount(isa.IntFile)
	d.dispatch(f1)
	if u.FreeCount(isa.IntFile) != freeInt {
		t.Error("FP allocation consumed an integer register")
	}
	if u.FreeCount(isa.FPFile) != freeInt-1 {
		t.Error("FP allocation did not consume an FP register")
	}
}

func TestExhaustionAndHasFree(t *testing.T) {
	u := newUnit(t, 33, Precise) // 2 free after reset
	d := &driver{u: u, seq: 10}
	d.dispatch(r1)
	if !u.HasFree(isa.IntFile) {
		t.Fatal("one register left but HasFree false")
	}
	d.dispatch(r2)
	if u.HasFree(isa.IntFile) {
		t.Fatal("exhausted file still HasFree")
	}
	defer func() {
		if recover() == nil {
			t.Error("allocating from an empty free list did not panic")
		}
	}()
	d.dispatch(r1)
}

func TestDropKillsAfter(t *testing.T) {
	u := newUnit(t, 64, Imprecise)
	d := &driver{u: u, seq: 10}
	free0 := u.FreeCount(isa.IntFile)
	i1 := d.dispatch(r1)
	i2 := d.dispatch(r1)
	d.complete(i1)
	d.complete(i2) // queues i2 as a killer
	// i2 is squashed before the frontier passes: its kill must be dropped.
	u.DropKillsAfter(i2.seq - 1)
	d.squash(i2)
	u.SetFrontier(NoFrontier)
	u.EndCycle()
	// i2's register came back, and i1's completion legitimately killed the
	// reset-time mapping of r1; but i1's own mapping must still be live
	// (its would-be killer was squashed).
	if u.FreeCount(isa.IntFile) != free0 {
		t.Errorf("free = %d, want %d (dropped kill must not fire)", u.FreeCount(isa.IntFile), free0)
	}
	if u.Lookup(r1) != i1.newP {
		t.Error("i1's mapping no longer current after the squash")
	}
	check(t, u)
}

func TestModelString(t *testing.T) {
	if Precise.String() != "precise" || Imprecise.String() != "imprecise" {
		t.Error("model strings wrong")
	}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Errorf("category %d has no name", c)
		}
	}
}
