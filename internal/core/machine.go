package core

import (
	"fmt"
	"time"

	"regsim/internal/bpred"
	"regsim/internal/cache"
	"regsim/internal/dispatch"
	"regsim/internal/isa"
	"regsim/internal/mem"
	"regsim/internal/prog"
	"regsim/internal/ref"
	"regsim/internal/rename"
	"regsim/internal/telemetry"
)

// Machine is one configured processor instance executing one program.
// Create it with New, drive it with Run, and read the statistics from the
// returned Result. A Machine is single-use and not safe for concurrent use.
type Machine struct {
	cfg    Config
	limits dispatch.Limits
	// slots is the issue stage's slot tracker, built once over limits and
	// reset every cycle.
	slots dispatch.Slots
	// art is the immutable predecoded executable this machine runs. text and
	// dec alias its (shared, read-only) segments: the instruction words and
	// the per-PC predecoded form, so the fetch/dispatch loop does not
	// re-derive operands from the instruction word every cycle — and so a
	// sweep's machines share one predecode table instead of building one each.
	art  *prog.Artifact
	text []isa.Inst
	dec  []prog.Predec

	ren *rename.Unit
	bp  *bpred.Predictor
	dc  *cache.DCache
	ic  *cache.ICache
	mem *mem.Memory

	win *window

	// Dispatch queue occupancy, tracked per class group so the split-queue
	// ablation can enforce per-queue capacities (unified mode checks the
	// sum). The queued uops themselves live in the window; the ones whose
	// operands are all available are in the window's ready set, maintained
	// by the rename unit's wakeup broadcast (see wake).
	// qTotal caches the sum of qCounts for the unified-queue capacity test,
	// which runs once per insertion attempt.
	qCounts [3]int
	qTotal  int

	// Speculative architectural state (functional execution at dispatch),
	// indexed by register file. The zero-register entries are never written,
	// so reads need no hardwired-zero special case.
	spec      [2][isa.NumArchRegs]uint64
	specPC    uint64
	specValid bool

	// Store queue: sequence numbers of un-committed stores, program order.
	storeQ     []int64
	storeQHead int

	// Conditional-branch queue for the completion frontier, program order.
	// brIssueIdx is the InOrderBranches issue cursor: every entry before it
	// is known to have left the dispatch queue (issued, completed, or
	// squashed), so the oldest-unissued-branch test resumes there instead
	// of rescanning from brQHead. It only ever moves forward, because a uop
	// never returns to the queued state.
	brQ        []int64
	brQHead    int
	brIssueIdx int
	// skipFrontier: the branch queue and completion frontier exist to arm
	// the rename unit's redefine kills (and the InOrderBranches ablation).
	// When the unit keeps no kills (an untracked precise run) and branches
	// issue freely, both are dead machinery and the per-cycle frontier
	// advance is skipped.
	skipFrontier bool

	// Completion buckets: a circular calendar of issue completions.
	buckets [][]int64
	bmask   int64

	// Unpipelined floating-point divider units.
	divBusyUntil []int64
	divOwner     []int64

	now           int64
	fetchResumeAt int64
	done          bool

	// Finite write buffer (zero-valued and inert under the paper's
	// no-bandwidth assumption).
	wbCount     int
	wbNextDrain int64

	sum ref.Checksum
	res Result

	// Runtime invariant checker state (Config.CheckInvariants): the first
	// violation and the last committed sequence number (for the in-order
	// commit check).
	invErr        error
	lastCommitSeq int64

	// Per-cycle dispatch stall flags.
	stallReg   bool
	stallQueue bool

	// Telemetry bookkeeping (inert unless the corresponding Config hooks
	// are set). commitsCycle counts this cycle's retirements; stallWB marks
	// a commit blocked by a full write buffer; icacheStallUntil and
	// redirectUntil remember why fetch is idle so zero-commit cycles can be
	// attributed to the right top-down bucket.
	commitsCycle     int
	stallWB          bool
	icacheStallUntil int64
	redirectUntil    int64
	runStart         time.Time
	progressEvery    int64
	nextProgressAt   int64
	nextCounterAt    int64

	// Per-cycle register-file port usage (reset in statsStage).
	cycleReads  [2]int
	cycleWrites [2]int
}

// New builds a machine for the given program. The program's data image is
// applied to a fresh functional memory. It is a convenience wrapper that
// predecodes the program privately; sweeps that run one program under many
// configurations should build one prog.Artifact and use NewFromArtifact.
func New(cfg Config, p *prog.Program) (*Machine, error) {
	art, err := prog.NewArtifact(p)
	if err != nil {
		return nil, err
	}
	return NewFromArtifact(cfg, art)
}

// NewFromArtifact builds a machine over a shared predecoded artifact. The
// artifact is read-only to the machine: the data image is copied into a
// fresh functional memory, and the text/predecode tables are aliased.
func NewFromArtifact(cfg Config, art *prog.Artifact) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := art.Program()
	limits, err := dispatch.LimitsFor(cfg.Width)
	if err != nil {
		return nil, err
	}
	if cfg.InsertPerCycle > 0 {
		limits.Insert = cfg.InsertPerCycle
	}
	if cfg.CommitPerCycle > 0 {
		limits.Commit = cfg.CommitPerCycle
	}
	if cfg.WriteBufferEntries > 0 && cfg.WriteBufferDrain == 0 {
		cfg.WriteBufferDrain = 4
	}
	ren, err := rename.NewUnit(cfg.RegsPerFile, cfg.Model, cfg.TrackLiveRegisters)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		limits:        limits,
		slots:         dispatch.NewSlots(limits),
		art:           art,
		text:          p.Text,
		dec:           art.Dec(),
		ren:           ren,
		bp:            bpred.NewKind(cfg.Predictor),
		dc:            cache.NewData(cfg.DCache),
		ic:            cache.NewICache(cfg.ICacheMissPenalty),
		mem:           mem.New(),
		win:           newWindow(2 * cfg.QueueSize),
		specPC:        p.Entry,
		specValid:     true,
		lastCommitSeq: noSeq,
	}
	m.ren.SetWakeFunc(m.wake)
	m.skipFrontier = !ren.Kills() && !cfg.InOrderBranches
	for _, dw := range p.Data {
		m.mem.Write64(dw.Addr, dw.Value)
	}
	// The completion calendar must cover the longest issue-to-completion
	// latency: a miss (hit + fetch + register write) or a double divide.
	maxLat := int64(cfg.DCache.HitLatency + cfg.DCache.FetchLatency + 2)
	if maxLat < latFDivD {
		maxLat = latFDivD
	}
	n := int64(2)
	for n < maxLat+2 {
		n <<= 1
	}
	m.buckets = make([][]int64, n)
	m.bmask = n - 1
	// Presize the recycled per-cycle structures: the completion calendar
	// and the store/branch queues grow once here instead of leaving a
	// doubling trail of garbage during the run.
	bbuf := make([]int64, n*16)
	for i := range m.buckets {
		m.buckets[i], bbuf = bbuf[:0:16], bbuf[16:]
	}
	m.storeQ = make([]int64, 0, 64)
	m.brQ = make([]int64, 0, 64)
	m.divBusyUntil = make([]int64, limits.FPDivUnits())
	m.divOwner = make([]int64, limits.FPDivUnits())
	for i := range m.divOwner {
		m.divOwner[i] = noSeq
	}
	if cfg.TrackLiveRegisters {
		m.res.Live[isa.IntFile] = newLiveHist(cfg.RegsPerFile)
		m.res.Live[isa.FPFile] = newLiveHist(cfg.RegsPerFile)
		m.res.Ports[isa.IntFile] = newPortHist()
		m.res.Ports[isa.FPFile] = newPortHist()
	}
	return m, nil
}

// watchdogCycles bounds how long the machine may go without committing an
// instruction before Run declares a deadlock (a simulator bug or a malformed
// program; the paper's machine cannot legitimately stall this long).
const watchdogCycles = 1 << 20

// defaultProgressEvery is the heartbeat period when Config.Progress is set
// but Config.ProgressEvery is zero.
const defaultProgressEvery = 1 << 20

// interruptEvery is how often Run polls Config.Interrupt, as a cycle mask.
// 8K cycles is microseconds of host time, so cancellation is prompt while
// the uncancelled path pays only a mask test per simulated cycle.
const interruptEvery = 1<<13 - 1

// Run simulates until the program halts or maxCommit instructions have
// committed, and returns the run statistics.
func (m *Machine) Run(maxCommit int64) (*Result, error) {
	if m.cfg.Progress != nil {
		m.runStart = time.Now()
		m.progressEvery = m.cfg.ProgressEvery
		if m.progressEvery == 0 {
			m.progressEvery = defaultProgressEvery
		}
		m.nextProgressAt = m.now + m.progressEvery
	}
	lastProgress := m.now
	lastCommitted := m.res.Committed
	for !m.done && m.res.Committed < maxCommit {
		m.step()
		if m.invErr != nil {
			return nil, m.invErr
		}
		if m.res.Committed != lastCommitted {
			lastCommitted = m.res.Committed
			lastProgress = m.now
		} else if m.now-lastProgress > watchdogCycles {
			return nil, fmt.Errorf("core: no commit in %d cycles at cycle %d (pc=%d, committed=%d): deadlock", watchdogCycles, m.now, m.specPC, m.res.Committed)
		}
		if !m.specValid && m.win.occupied() == 0 && !m.done {
			return nil, fmt.Errorf("core: execution ran off the text segment at pc=%d with an empty window", m.specPC)
		}
		if m.cfg.Progress != nil && m.now >= m.nextProgressAt {
			m.nextProgressAt = m.now + m.progressEvery
			m.emitProgress(maxCommit, false)
		}
		if m.cfg.Interrupt != nil && m.now&interruptEvery == 0 {
			if err := m.cfg.Interrupt(); err != nil {
				return nil, fmt.Errorf("core: run interrupted at cycle %d (committed=%d): %w", m.now, m.res.Committed, err)
			}
		}
	}
	if m.cfg.Progress != nil {
		m.emitProgress(maxCommit, true)
	}
	m.res.Checksum = m.sum.Value()
	m.res.DCache = m.dc.Stats()
	m.res.ICacheAccesses = m.ic.Accesses
	m.res.ICacheMisses = m.ic.Misses
	if t := m.cfg.Telemetry; t != nil {
		// The top-down invariant: every cycle lands in exactly one bucket.
		if err := t.Check(m.res.Cycles); err != nil {
			return nil, err
		}
	}
	r := m.res
	return &r, nil
}

// emitProgress delivers one heartbeat to Config.Progress.
func (m *Machine) emitProgress(budget int64, done bool) {
	elapsed := time.Since(m.runStart)
	p := telemetry.Progress{
		Cycles:    m.now,
		Committed: m.res.Committed,
		Budget:    budget,
		Elapsed:   elapsed,
		Done:      done,
	}
	if m.now > 0 {
		p.IPC = float64(m.res.Committed) / float64(m.now)
	}
	if !done && m.res.Committed > 0 && budget > m.res.Committed {
		p.ETA = time.Duration(float64(elapsed) * float64(budget-m.res.Committed) / float64(m.res.Committed))
	}
	m.cfg.Progress(p)
}

// Rename exposes the rename unit for invariant checks in tests.
func (m *Machine) Rename() *rename.Unit { return m.ren }

// Cycles returns the current cycle number.
func (m *Machine) Cycles() int64 { return m.now }

// Memory exposes the architectural memory image, for oracle comparison
// against the reference interpreter after a run.
func (m *Machine) Memory() *mem.Memory { return m.mem }

// ArchRegs returns one register file's architectural contents. It is
// meaningful once the program has halted (every instruction committed):
// misprediction recovery restores the speculative file exactly, so with
// nothing in flight the speculative file is the architectural file.
func (m *Machine) ArchRegs(f isa.RegFile) [isa.NumArchRegs]uint64 {
	return m.spec[f]
}

// --- speculative register file helpers ---

// readSpec needs no zero-register check: writeSpec never writes the
// hardwired-zero slot, so it always reads as zero.
func (m *Machine) readSpec(r isa.Reg) uint64 {
	return m.spec[r.File][r.Idx]
}

func (m *Machine) writeSpec(f isa.RegFile, idx uint8, v uint64) {
	if idx == isa.ZeroReg {
		return
	}
	m.spec[f][idx] = v
}

// loadSpec returns the functional value a load of addr observes at dispatch:
// the youngest earlier un-committed store to the same address, else memory.
func (m *Machine) loadSpec(addr uint64) (val uint64, depStore int64) {
	for i := len(m.storeQ) - 1; i >= m.storeQHead; i-- {
		s := m.win.at(m.storeQ[i])
		if s.addr == addr {
			return s.result, s.seq
		}
	}
	return m.mem.Read64(addr), noSeq
}

// --- dispatch queue ---

// queueGroup maps an instruction class to its dispatch queue in split mode:
// 0 integer+control, 1 floating point, 2 memory.
func queueGroup(c isa.Class) int {
	switch c {
	case isa.ClassFP, isa.ClassFPDiv:
		return 1
	case isa.ClassLoad, isa.ClassStore:
		return 2
	}
	return 0
}

// queueCapacity returns the capacity of a class group's queue: the full
// unified queue, or a 2:1:1 split of it.
func (m *Machine) queueCapacity(group int) int {
	if !m.cfg.SplitQueues {
		return m.cfg.QueueSize
	}
	if group == 0 {
		return m.cfg.QueueSize / 2
	}
	return m.cfg.QueueSize / 4
}

// queueFull reports whether the queue feeding class c cannot accept another
// instruction.
func (m *Machine) queueFull(c isa.Class) bool {
	if m.cfg.SplitQueues {
		g := queueGroup(c)
		return m.qCounts[g] >= m.queueCapacity(g)
	}
	return m.qTotal >= m.cfg.QueueSize
}

// queueAdd inserts a freshly dispatched uop into the dispatch queue. A uop
// with no outstanding operands enters the ready set immediately; otherwise
// the wakeup broadcast inserts it when its last producer completes.
func (m *Machine) queueAdd(u *uop) {
	m.qCounts[queueGroup(u.class)]++
	m.qTotal++
	if u.waitCount == 0 {
		m.win.setReady(u.seq)
	}
}

// queueRemove takes a uop out of the dispatch queue (on issue or squash).
// clearReady is bit-checked, so removing a uop still waiting on operands —
// which was never in the ready set — is harmless.
func (m *Machine) queueRemove(u *uop) {
	m.win.clearReady(u.seq)
	m.qCounts[queueGroup(u.class)]--
	m.qTotal--
}

// wake walks one producer's waiter chain, decrementing each registered
// consumer's outstanding count and inserting those that reach zero into the
// ready set. It serves both the rename unit's completion broadcast (chain
// per physical register) and store completion (chain of forwarded loads).
//
// A token encodes consumer seq and link slot as seq<<1|slot. Stale tokens —
// consumers squashed since registering — are skipped but their links are
// still followed: a chain is only walked when its producer completes, the
// producer is then live and older than every chain member, so no member's
// window slot can have been recycled (recycling requires headSeq to pass
// it). Sequence numbers are never reused, so a stale token cannot alias a
// live uop either.
func (m *Machine) wake(head int64) {
	for token := head; token != rename.NoWaiter; {
		u := m.win.at(token >> 1)
		slot := token & 1
		token = u.waitLink[slot]
		if u.state != sQueued || u.waitCount == 0 {
			continue
		}
		u.waitCount--
		if u.waitCount == 0 {
			m.win.setReady(u.seq)
		}
	}
}
