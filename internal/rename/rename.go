// Package rename implements the register-renaming unit: the virtual-to-
// physical map tables, free lists, and — the heart of the paper — the two
// register-freeing disciplines of Farkas, Jouppi & Chow (WRL 95/10, §2.2).
//
// # Mapping lifecycle
//
// When an instruction naming destination register Rv is inserted into the
// dispatch queue, Rv is mapped to a free physical register (the mapping is
// *created*). When a later instruction naming Rv as a destination is
// inserted, the earlier mapping is *retired*. A retired mapping is
// eventually *killed*, at a point that depends on the exception model, and
// the killed mapping's physical register becomes free for reuse.
//
// # Precise exceptions
//
// The physical register Rp backing a retired mapping created by I1 is freed
// when the retiring instruction I2 (the next writer of Rv in program order)
// *commits*. Commitment of I2 subsumes the completion of I1 and of every
// reader of Rp.
//
// # Imprecise exceptions
//
// Rp is freed when (1) its writer I1 has *completed*, (2) every dispatched
// reader of Rp has completed, and (3) any later writer Ix of Rv has
// completed with every conditional branch preceding Ix also completed. Note
// the paper's three differences from the precise model: completion rather
// than commitment; only preceding *branches* (not all instructions) must
// have completed; and *any* later writer kills *all* older mappings of Rv,
// not just the immediately preceding one.
//
// In both models a freed register is reusable in the cycle after its
// conditions are satisfied (Unit.EndCycle applies the frees).
//
// # Live-register classification
//
// For Figure 3 the unit classifies every live physical register each cycle
// into one of four states: assigned to an instruction still in the dispatch
// queue; assigned to an in-flight (issued, uncompleted) instruction; waiting
// for the imprecise freeing requirements; or waiting for the additional
// precise requirements (imprecise conditions already met). The
// classification works in both models; only the freeing trigger differs.
//
// # Bookkeeping
//
// A unit keeps only the state its configuration reads, decided once by
// NewUnit from the model and whether the caller tracks live registers:
//
//   - the live-register categories (LiveByCat) only when tracking;
//   - the redefine kills, and the per-register mapping chains they walk,
//     when they decide something: always under the imprecise model (they
//     are its freeing rule), and under the precise model only when
//     tracking (there they only split wait-imprecise from wait-precise).
//
// None of it changes which registers are allocated or freed, or in what
// order, so a lean unit and a full one run identical timing.
package rename

import (
	"fmt"
	"math"

	"regsim/internal/isa"
)

// Phys is a physical register number within one file. PhysZero denotes the
// hardwired zero register, which is not drawn from the physical pool and is
// never renamed.
type Phys int32

// PhysZero is the sentinel for the hardwired zero register.
const PhysZero Phys = -1

// Model selects the exception model's register-freeing discipline.
type Model uint8

const (
	// Precise frees a retired mapping when its retiring instruction commits.
	Precise Model = iota
	// Imprecise frees a retired mapping under the weaker completion-based
	// conditions, the paper's lower bound on register requirements.
	Imprecise
)

func (m Model) String() string {
	if m == Precise {
		return "precise"
	}
	return "imprecise"
}

// MarshalText encodes the model as its name, so JSON carrying a Model (the
// serving wire format, cmd/paper -json map keys) stays readable and stable
// if the enum values are ever reordered.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a model name.
func (m *Model) UnmarshalText(text []byte) error {
	switch string(text) {
	case "precise":
		*m = Precise
	case "imprecise":
		*m = Imprecise
	default:
		return fmt.Errorf("rename: unknown exception model %q (want precise or imprecise)", text)
	}
	return nil
}

// Category classifies a live physical register for Figure 3.
type Category uint8

const (
	// CatInQueue: the writing instruction is still in the dispatch queue.
	CatInQueue Category = iota
	// CatInFlight: the writing instruction has issued but not completed.
	CatInFlight
	// CatWaitImprecise: the writer has completed but the imprecise freeing
	// conditions are not yet all satisfied.
	CatWaitImprecise
	// CatWaitPrecise: the imprecise conditions are satisfied; the register
	// is waiting only for the additional precise-exception requirement
	// (commitment of the retiring instruction).
	CatWaitPrecise

	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatInQueue:
		return "in-queue"
	case CatInFlight:
		return "in-flight"
	case CatWaitImprecise:
		return "wait-imprecise"
	case CatWaitPrecise:
		return "wait-precise"
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// NoFrontier is the frontier value meaning "no uncompleted conditional
// branches are in flight".
const NoFrontier int64 = math.MaxInt64

// MinRegsPerFile is the smallest workable physical register file: the 31
// renameable virtual registers consume 31 physical registers at reset, and
// at least one more must exist for any instruction with a destination to
// dispatch (the paper's deadlock argument in §3.1).
const MinRegsPerFile = isa.NumArchRegs

const numRenameable = isa.NumArchRegs - 1 // virtual registers 0..30

type physReg struct {
	live       bool
	cat        Category
	writerDone bool
	readers    int32
	killed     bool
	virt       uint8 // virtual register this physical register backs/backed
	pendFree   bool
}

// chainEntry is one outstanding mapping of a virtual register, in creation
// (program) order.
type chainEntry struct {
	seq  int64
	phys Phys
}

type fileState struct {
	n        int
	mapTable [isa.NumArchRegs]Phys
	freeList []Phys
	regs     []physReg
	chains   [isa.NumArchRegs][]chainEntry
	liveCat  [NumCategories]int
	live     int
	pending  []Phys // frees to apply at EndCycle

	// killedN[v] is the length of the killed prefix of chains[v]. Kills
	// take every mapping older than the killer, and a chain is in creation
	// order, so the killed mappings are always a prefix; a kill walk
	// resumes after it instead of re-walking it.
	killedN [isa.NumArchRegs]int32

	// maxPhys is the allocation watermark: the highest physical register
	// number ever handed out by Rename (numRenameable-1 at reset, when only
	// the architectural mappings exist). Registers above it are untouched
	// pool registers, which — because the free list pops from the end and
	// its untouched tail forms the front prefix [n-1 .. maxPhys+1] — is what
	// lets a pressure-free run's result answer other file sizes (see
	// internal/exper/siblings.go).
	maxPhys Phys

	// waitHead[p] is the head of the intrusive chain of dispatched
	// consumers waiting for p's writer to complete (NoWaiter when empty).
	// The rename unit stores only opaque tokens: the scheduler encodes its
	// own identity in each token and threads the chain links through its
	// own structures, so registering a waiter and the broadcast itself
	// never allocate. The chain is handed to the wake callback the moment
	// OnWriterDone runs, which is what makes the scheduler's select loop
	// event-driven instead of re-polling Ready every cycle. Chains left
	// behind by squashed consumers are lazily discarded: they are never
	// drained (their writer never completes), and the head is reset when p
	// is next allocated.
	waitHead []int64
}

// pendingKill is a completed redefiner waiting for the conditional-branch
// frontier to pass it before it may kill older mappings.
type pendingKill struct {
	file isa.RegFile
	virt uint8
	seq  int64
}

// Unit is the rename unit for both register files.
type Unit struct {
	model    Model
	files    [2]fileState
	frontier int64
	kills    []pendingKill
	// cats: maintain the live-register categories. killsOn: maintain the
	// redefine kills and the mapping chains. See emptyUnit.
	cats    bool
	killsOn bool
	// killsMin is a lower bound on the seqs in kills (NoFrontier when the
	// view is empty), letting the per-cycle SetFrontier scan exit without
	// touching the list when no pending kill can be armed yet.
	killsMin int64

	// wake, when non-nil, receives the head of a register's waiter chain
	// at the moment that register's writer completes (inside OnWriterDone,
	// so wakeups are visible to the same cycle's issue stage — the model's
	// bypass network).
	wake func(head int64)

	// Frees counts registers returned to the free lists (tests use this
	// to check conservation).
	Frees int64
}

// NewUnit builds a rename unit with regsPerFile physical registers in each
// of the integer and floating-point files (the paper keeps the two equal).
// track says whether the caller reads the live-register categories
// (LiveByCat); with the model it fixes the unit's bookkeeping for its whole
// life (see the package doc).
func NewUnit(regsPerFile int, model Model, track bool) (*Unit, error) {
	if regsPerFile < MinRegsPerFile {
		return nil, fmt.Errorf("rename: %d registers per file; fewer than %d deadlocks (31 renameable virtual registers)", regsPerFile, MinRegsPerFile)
	}
	u := emptyUnit(model, track)
	for f := range u.files {
		fs := &u.files[f]
		fs.n = regsPerFile
		fs.regs = make([]physReg, regsPerFile)
		// Reset state: virtual registers 0..30 map to physical 0..30, whose
		// (notional) writers completed long ago; they await retirement like
		// any other mapping.
		for v := 0; v < numRenameable; v++ {
			fs.mapTable[v] = Phys(v)
			fs.regs[v] = physReg{live: true, writerDone: true, virt: uint8(v)}
			if u.cats {
				fs.regs[v].cat = CatWaitImprecise
			}
			if u.killsOn {
				fs.chains[v] = append(fs.chains[v], chainEntry{seq: -1, phys: Phys(v)})
			}
		}
		fs.mapTable[isa.ZeroReg] = PhysZero
		if u.cats {
			fs.liveCat[CatWaitImprecise] = numRenameable
		}
		fs.live = numRenameable
		fs.freeList = make([]Phys, 0, regsPerFile-numRenameable)
		for p := regsPerFile - 1; p >= numRenameable; p-- {
			fs.freeList = append(fs.freeList, Phys(p))
		}
		fs.waitHead = make([]int64, regsPerFile)
		for p := range fs.waitHead {
			fs.waitHead[p] = NoWaiter
		}
		fs.maxPhys = numRenameable - 1
	}
	return u, nil
}

// NoWaiter marks an empty waiter chain.
const NoWaiter int64 = -1

// SetWakeFunc registers the scheduler's wakeup callback: fn receives the
// head token of each waiter chain whose awaited physical register becomes
// ready, synchronously from inside OnWriterDone. The scheduler owns the
// chain links (AddWaiter returns the previous head for the caller to store),
// and must tolerate stale tokens — consumers squashed after registering are
// not unlinked.
func (u *Unit) SetWakeFunc(fn func(head int64)) { u.wake = fn }

// AddWaiter pushes a consumer token onto physical register p's waiter chain
// and returns the previous head, which the caller must keep as the token's
// successor link. The caller must only register while Ready(f, p) is false;
// a completed writer's register never wakes anyone again until it is freed
// and reallocated.
func (u *Unit) AddWaiter(f isa.RegFile, p Phys, token int64) (next int64) {
	fs := u.fs(f)
	next = fs.waitHead[p]
	fs.waitHead[p] = token
	return next
}

// emptyUnit is the configuration half of NewUnit and RestoreUnit: it fixes
// the bookkeeping the unit keeps. Categories are kept only when tracking.
// Under the precise model a kill never frees anything — OnCommitRetire
// does — so its only effect is the wait-imprecise/wait-precise split of
// LiveByCat: an untracked precise unit keeps no kill queue and no mapping
// chains, and its caller can skip the branch frontier that arms kills (see
// Kills).
func emptyUnit(model Model, track bool) *Unit {
	return &Unit{
		model: model, frontier: NoFrontier, killsMin: NoFrontier,
		cats: track, killsOn: model == Imprecise || track,
	}
}

// Model returns the freeing discipline in use.
func (u *Unit) Model() Model { return u.model }

// Kills reports whether the unit keeps redefine kills, which SetFrontier
// arms: when it does not, the caller need not compute the frontier.
func (u *Unit) Kills() bool { return u.killsOn }

// fs returns the state of file f. Masking the index (files has exactly two
// entries) drops the bounds check from every rename-unit entry point.
func (u *Unit) fs(f isa.RegFile) *fileState { return &u.files[f&1] }

// FreeCount returns the number of allocatable physical registers in a file.
func (u *Unit) FreeCount(f isa.RegFile) int { return len(u.fs(f).freeList) }

// HasFree reports whether an allocation in file f can succeed this cycle.
func (u *Unit) HasFree(f isa.RegFile) bool { return len(u.fs(f).freeList) > 0 }

// Live returns the number of live (allocated) physical registers in a file,
// excluding the hardwired zero register.
func (u *Unit) Live(f isa.RegFile) int { return u.fs(f).live }

// LiveByCat returns the per-category live counts for a file. They are kept
// only by a unit built to track (all zero otherwise).
func (u *Unit) LiveByCat(f isa.RegFile) [NumCategories]int { return u.fs(f).liveCat }

// Lookup returns the current physical mapping of an architectural register.
func (u *Unit) Lookup(r isa.Reg) Phys {
	if r.IsZero() {
		return PhysZero
	}
	return u.fs(r.File).mapTable[r.Idx]
}

func (fs *fileState) setCat(p Phys, c Category) {
	r := &fs.regs[p]
	fs.liveCat[r.cat]--
	r.cat = c
	fs.liveCat[c]++
}

// Rename allocates a new physical register for destination dst at sequence
// number seq, updates the map table, and returns the new mapping and the
// retired one. The caller must have checked HasFree; Rename panics on an
// empty free list (that is a scheduler bug, not a runtime condition).
func (u *Unit) Rename(seq int64, dst isa.Reg) (newPhys, oldPhys Phys) {
	if dst.IsZero() {
		panic("rename: Rename called for hardwired zero destination")
	}
	fs := u.fs(dst.File)
	n := len(fs.freeList)
	if n == 0 {
		panic("rename: allocation from empty free list")
	}
	newPhys = fs.freeList[n-1]
	fs.freeList = fs.freeList[:n-1]
	if newPhys > fs.maxPhys {
		fs.maxPhys = newPhys
	}
	r := &fs.regs[newPhys]
	if r.live {
		panic("rename: free list contained a live register")
	}
	*r = physReg{live: true, cat: CatInQueue, virt: dst.Idx}
	fs.live++
	if u.cats {
		fs.liveCat[CatInQueue]++
	}
	// Reset the waiter chain for the register's new lifetime. A chain
	// still attached here belongs to consumers of a squashed previous
	// mapping (a completed writer drains its chain, so only a squash can
	// leave one behind); dropping it here bounds staleness without
	// per-squash unlinking.
	fs.waitHead[newPhys] = NoWaiter

	oldPhys = fs.mapTable[dst.Idx]
	fs.mapTable[dst.Idx] = newPhys
	if u.killsOn {
		fs.chains[dst.Idx] = append(fs.chains[dst.Idx], chainEntry{seq: seq, phys: newPhys})
	}
	return newPhys, oldPhys
}

// Ready reports whether a physical register's value is available to
// consumers (its writer has completed; bypassing makes completion-cycle
// results usable the same cycle). The hardwired zero is always ready.
func (u *Unit) Ready(f isa.RegFile, p Phys) bool {
	if p == PhysZero {
		return true
	}
	return u.fs(f).regs[p].writerDone
}

// AddReader records a dispatched reader of a physical register.
func (u *Unit) AddReader(f isa.RegFile, p Phys) {
	if p == PhysZero {
		return
	}
	u.fs(f).regs[p].readers++
}

// ReadSource resolves source register r to its current physical mapping,
// records the dispatched reader, and reports whether the producer has already
// completed. It is the fused form of Lookup+AddReader+Ready used on the
// dispatch fast path: one file-state lookup instead of three.
func (u *Unit) ReadSource(r isa.Reg) (Phys, bool) {
	if r.IsZero() {
		return PhysZero, true
	}
	fs := u.fs(r.File)
	p := fs.mapTable[r.Idx]
	reg := &fs.regs[p]
	reg.readers++
	return p, reg.writerDone
}

// OnIssue moves a destination register from the in-queue to the in-flight
// category when its writing instruction issues.
func (u *Unit) OnIssue(f isa.RegFile, p Phys) {
	if u.cats && p != PhysZero {
		u.fs(f).setCat(p, CatInFlight)
	}
}

// OnReaderDone records the completion of a dispatched reader.
func (u *Unit) OnReaderDone(f isa.RegFile, p Phys) {
	if p == PhysZero {
		return
	}
	fs := u.fs(f)
	r := &fs.regs[p]
	if r.readers <= 0 {
		panic("rename: reader completion underflow")
	}
	r.readers--
	// Freeing needs killed && writerDone && readers == 0; checking the first
	// two here skips the call for the common case of a reader draining from
	// a mapping that is still current.
	if r.killed && r.writerDone && r.readers == 0 {
		u.maybeImpreciseDone(f, p, fs, r)
	}
}

// OnWriterDone records the completion of the instruction writing p, and
// registers that instruction (at sequence seq, writing virtual register
// virt) as a potential killer of older mappings of virt.
func (u *Unit) OnWriterDone(f isa.RegFile, p Phys, virt uint8, seq int64) {
	fs := u.fs(f)
	r := &fs.regs[p]
	r.writerDone = true
	if u.cats {
		fs.setCat(p, CatWaitImprecise)
	}
	// Broadcast wakeup: hand the waiter chain to the scheduler and detach
	// it. Detaching before the callback is safe — the callback never
	// re-registers on an already-ready register.
	if h := fs.waitHead[p]; h != NoWaiter {
		fs.waitHead[p] = NoWaiter
		if u.wake != nil {
			u.wake(h)
		}
	}
	// Queue the kill, if the unit keeps kills (see emptyUnit).
	if u.killsOn {
		u.kills = append(u.kills, pendingKill{file: f, virt: virt, seq: seq})
		if seq < u.killsMin {
			u.killsMin = seq
		}
	}
	if r.killed && r.readers == 0 {
		u.maybeImpreciseDone(f, p, fs, r)
	}
}

// SetFrontier updates the oldest-uncompleted-conditional-branch sequence
// number (NoFrontier when none is in flight) and arms any pending kills now
// preceded only by completed branches. The core calls this once per cycle,
// after completions and misprediction recovery.
func (u *Unit) SetFrontier(frontier int64) {
	u.frontier = frontier
	// Nothing to arm unless some pending kill precedes the frontier.
	// killsMin is a lower bound on the pending seqs (exact after every
	// scan, only ever conservative in between), so a skipped scan is one
	// that would have armed nothing — the kill set and order are untouched.
	if u.killsMin >= frontier {
		return
	}
	remaining := u.kills[:0]
	min := NoFrontier
	for _, k := range u.kills {
		if k.seq < frontier {
			u.killOlder(k.file, k.virt, k.seq)
		} else {
			if k.seq < min {
				min = k.seq
			}
			remaining = append(remaining, k)
		}
	}
	u.kills = remaining
	u.killsMin = min
}

// killOlder marks every mapping of virt older than seq as killed. The walk
// starts after the chain's killed prefix, which holds nothing left to kill.
// The kill targets are collected before any state changes: freeing a
// register removes its chain entry, which must not perturb the scan.
func (u *Unit) killOlder(f isa.RegFile, virt uint8, seq int64) {
	fs := u.fs(f)
	ch := fs.chains[virt]
	i := int(fs.killedN[virt])
	if i >= len(ch) || ch[i].seq >= seq {
		return // no unkilled older mapping outstanding
	}
	var buf [8]Phys
	toKill := buf[:0]
	for ; i < len(ch) && ch[i].seq < seq; i++ {
		if p := ch[i].phys; !fs.regs[p].killed {
			toKill = append(toKill, p)
		}
	}
	fs.killedN[virt] = int32(i)
	for _, p := range toKill {
		r := &fs.regs[p]
		r.killed = true
		if r.writerDone && r.readers == 0 {
			u.maybeImpreciseDone(f, p, fs, r)
		}
	}
}

// maybeImpreciseDone checks the full imprecise freeing condition for p:
// writer completed, no uncompleted readers, and mapping killed. When it
// holds, the register either frees (imprecise model) or moves to the
// wait-precise category (precise model). Callers pass the file state and
// register entry they already hold; r must be &fs.regs[p].
func (u *Unit) maybeImpreciseDone(f isa.RegFile, p Phys, fs *fileState, r *physReg) {
	if !r.live || r.pendFree || !r.killed || !r.writerDone || r.readers != 0 {
		return
	}
	if u.model == Imprecise {
		u.free(f, p)
	} else if r.cat != CatWaitPrecise {
		fs.setCat(p, CatWaitPrecise)
	}
}

// OnCommitRetire applies the precise-model freeing rule: the retiring
// instruction has committed, so the mapping it retired (oldPhys) is freed.
// In the imprecise model retirement-at-commit is irrelevant and this is a
// no-op (the register was or will be freed by the completion-based rule).
func (u *Unit) OnCommitRetire(f isa.RegFile, oldPhys Phys) {
	if u.model != Precise || oldPhys == PhysZero {
		return
	}
	u.free(f, oldPhys)
}

// free retires the register's chain entry and queues the register for the
// free list at EndCycle (reusable the next cycle, per the paper).
func (u *Unit) free(f isa.RegFile, p Phys) {
	fs := u.fs(f)
	r := &fs.regs[p]
	if !r.live || r.pendFree {
		panic(fmt.Sprintf("rename: double free of %s phys %d", f, p))
	}
	r.pendFree = true
	if u.cats {
		fs.liveCat[r.cat]--
	}
	fs.live--
	if u.killsOn {
		fs.removeChainEntry(r.virt, p)
	}
	fs.pending = append(fs.pending, p)
}

func (fs *fileState) removeChainEntry(virt uint8, p Phys) {
	ch := fs.chains[virt]
	for i := range ch {
		if ch[i].phys == p {
			fs.chains[virt] = append(ch[:i], ch[i+1:]...)
			if int32(i) < fs.killedN[virt] {
				fs.killedN[virt]--
			}
			return
		}
	}
	panic(fmt.Sprintf("rename: chain entry for phys %d of v%d not found", p, virt))
}

// OnSquash undoes one squashed instruction's rename effects. Squashes must
// be applied newest-first. completed reports whether the squashed
// instruction had completed (its reader decrements already happened).
// srcs/srcFiles list its physical sources for reader-count rollback.
func (u *Unit) OnSquash(dstFile isa.RegFile, virt uint8, newPhys, oldPhys Phys, hasDst, completed bool, srcFiles []isa.RegFile, srcs []Phys) {
	if hasDst {
		fs := u.fs(dstFile)
		if fs.mapTable[virt] != newPhys {
			panic("rename: out-of-order squash (map table mismatch)")
		}
		fs.mapTable[virt] = oldPhys
		r := &fs.regs[newPhys]
		if r.pendFree {
			panic("rename: squashed register already freed")
		}
		// The squashed register frees unconditionally; remove its chain
		// entry (it must be the newest for this virtual register).
		if u.killsOn {
			ch := fs.chains[virt]
			n := len(ch) - 1
			if n < 0 || ch[n].phys != newPhys {
				panic("rename: out-of-order squash (chain mismatch)")
			}
			fs.chains[virt] = ch[:n]
			if fs.killedN[virt] > int32(n) {
				fs.killedN[virt] = int32(n)
			}
		}
		r.pendFree = true
		if u.cats {
			fs.liveCat[r.cat]--
		}
		fs.live--
		fs.pending = append(fs.pending, newPhys)
	}
	if !completed {
		for i, p := range srcs {
			u.OnReaderDone(srcFiles[i], p)
		}
	}
}

// DropKillsAfter removes pending kills from squashed instructions (sequence
// numbers greater than seq).
func (u *Unit) DropKillsAfter(seq int64) {
	remaining := u.kills[:0]
	for _, k := range u.kills {
		if k.seq <= seq {
			remaining = append(remaining, k)
		}
	}
	u.kills = remaining
}

// EndCycle returns this cycle's freed registers to the free lists, making
// them allocatable from the next cycle on. Most cycles free nothing; that
// check is small enough to inline into the caller's cycle loop.
func (u *Unit) EndCycle() {
	if len(u.files[0].pending)+len(u.files[1].pending) != 0 {
		u.applyFrees()
	}
}

// applyFrees is kept out of line so that EndCycle's empty check inlines.
//
//go:noinline
func (u *Unit) applyFrees() {
	for f := range u.files {
		fs := &u.files[f]
		for _, p := range fs.pending {
			r := &fs.regs[p]
			r.live = false
			r.pendFree = false
			r.killed = false
			r.writerDone = false
			if r.readers != 0 {
				panic("rename: freeing register with outstanding readers")
			}
			fs.freeList = append(fs.freeList, p)
			u.Frees++
		}
		fs.pending = fs.pending[:0]
	}
}

// CheckInvariants verifies internal consistency (used by tests): free + live
// + pending-free registers account for every physical register exactly once,
// map-table entries are live, and completed writers hold no waiters. Of the
// optional bookkeeping it checks what the unit keeps: category counts sum to
// the live count, and each mapping chain is in order, ends at the map-table
// entry and opens with its killed prefix.
func (u *Unit) CheckInvariants() error {
	if !u.killsOn && len(u.kills) != 0 {
		return fmt.Errorf("%d pending kills in a unit that keeps none", len(u.kills))
	}
	for f := range u.files {
		fs := &u.files[f]
		seen := make(map[Phys]bool, fs.n)
		for _, p := range fs.freeList {
			if seen[p] {
				return fmt.Errorf("file %d: phys %d on free list twice", f, p)
			}
			seen[p] = true
			if fs.regs[p].live {
				return fmt.Errorf("file %d: live phys %d on free list", f, p)
			}
		}
		liveCount := 0
		catSum := 0
		for c := Category(0); c < NumCategories; c++ {
			catSum += fs.liveCat[c]
		}
		for p := range fs.regs {
			if fs.regs[p].live {
				liveCount++
				if seen[Phys(p)] {
					return fmt.Errorf("file %d: phys %d both live and free", f, p)
				}
			} else if !seen[Phys(p)] && !containsPhys(fs.pending, Phys(p)) {
				return fmt.Errorf("file %d: phys %d neither live, free, nor pending", f, p)
			}
		}
		pendCount := len(fs.pending)
		if liveCount-pendCount != fs.live {
			return fmt.Errorf("file %d: live count %d != tracked %d (pending %d)", f, liveCount-pendCount, fs.live, pendCount)
		}
		if u.cats && catSum != fs.live {
			return fmt.Errorf("file %d: category sum %d != live %d", f, catSum, fs.live)
		}
		// A register whose writer has completed must have an empty waiter
		// chain: OnWriterDone detaches it, and AddWaiter never registers on
		// a ready register. A live not-yet-written register may hold
		// waiters; a dead one may hold only a stale (squashed-consumer)
		// chain, which Rename resets on reallocation.
		for p := range fs.regs {
			if fs.regs[p].writerDone && fs.waitHead[p] != NoWaiter {
				return fmt.Errorf("file %d: phys %d has waiters after its writer completed", f, p)
			}
		}
		for v := 0; v < numRenameable; v++ {
			p := fs.mapTable[v]
			if p == PhysZero || !fs.regs[p].live {
				return fmt.Errorf("file %d: map table v%d -> dead phys %d", f, v, p)
			}
			ch := fs.chains[v]
			if !u.killsOn {
				if len(ch) != 0 {
					return fmt.Errorf("file %d: v%d has a mapping chain in a unit that keeps none", f, v)
				}
				continue
			}
			// The map table must agree with the newest outstanding mapping:
			// this is what misprediction rollback (OnSquash, newest-first)
			// must restore exactly.
			if len(ch) == 0 {
				return fmt.Errorf("file %d: v%d has no mapping chain", f, v)
			}
			if tail := ch[len(ch)-1].phys; tail != p {
				return fmt.Errorf("file %d: map table v%d -> phys %d but newest mapping is phys %d", f, v, p, tail)
			}
			killedN := int(fs.killedN[v])
			if killedN > len(ch) {
				return fmt.Errorf("file %d: v%d killed prefix %d longer than its chain (%d)", f, v, killedN, len(ch))
			}
			lastSeq := int64(math.MinInt64)
			for i, e := range ch {
				if e.seq < lastSeq {
					return fmt.Errorf("file %d: v%d mapping chain out of order at seq %d", f, v, e.seq)
				}
				lastSeq = e.seq
				if !fs.regs[e.phys].live || fs.regs[e.phys].pendFree {
					return fmt.Errorf("file %d: v%d chain holds freed phys %d", f, v, e.phys)
				}
				if got := fs.regs[e.phys].virt; got != uint8(v) {
					return fmt.Errorf("file %d: chain of v%d holds phys %d backing v%d", f, v, e.phys, got)
				}
				if fs.regs[e.phys].killed != (i < killedN) {
					return fmt.Errorf("file %d: v%d chain entry %d (phys %d) killed=%v, but the killed prefix is %d long", f, v, i, e.phys, fs.regs[e.phys].killed, killedN)
				}
			}
		}
	}
	return nil
}

func containsPhys(s []Phys, p Phys) bool {
	for _, x := range s {
		if x == p {
			return true
		}
	}
	return false
}
