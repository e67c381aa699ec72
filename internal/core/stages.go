package core

import (
	"math/bits"

	"regsim/internal/dispatch"
	"regsim/internal/isa"
	"regsim/internal/mem"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/telemetry"
)

// step advances the machine one clock cycle. Stage order within a cycle:
//
//  1. data-cache block arrivals (fills install);
//  2. completions (results produced; branch predictor counters updated;
//     mispredictions detected);
//  3. misprediction recovery (squash, rename rollback, fetch redirect);
//  4. conditional-branch frontier advance (arms imprecise kills);
//  5. in-order commit of up to 2× issue width;
//  6. issue of up to issue-width ready instructions, oldest first;
//  7. insertion of up to 1.5× issue width instructions into the dispatch
//     queue, with renaming and functional execution;
//  8. statistics;
//  9. end-of-cycle register frees (freed registers usable next cycle).
//
// Running completion before issue gives single-cycle-operation back-to-back
// bypassing; running issue before dispatch means an instruction cannot issue
// in its insertion cycle.
func (m *Machine) step() {
	m.now++
	m.stallReg, m.stallQueue, m.stallWB = false, false, false
	m.commitsCycle = 0

	m.dc.Tick(m.now)
	m.drainWriteBuffer()
	recoverSeq := m.completionStage()
	if recoverSeq != noSeq {
		m.recover(recoverSeq)
	}
	m.advanceFrontier()
	m.commitStage()
	if !m.done {
		m.issueStage()
		m.dispatchStage()
	}
	m.statsStage()
	m.ren.EndCycle()
	if m.cfg.CheckInvariants {
		m.checkInvariants()
	}
}

// drainWriteBuffer retires one buffered store to memory every
// WriteBufferDrain cycles (finite-write-buffer configurations only; the
// paper's infinite buffer needs no draining).
func (m *Machine) drainWriteBuffer() {
	if m.cfg.WriteBufferEntries <= 0 || m.wbCount == 0 {
		return
	}
	if m.now >= m.wbNextDrain {
		m.wbCount--
		m.wbNextDrain = m.now + int64(m.cfg.WriteBufferDrain)
	}
}

// completionStage retires this cycle's completion-calendar bucket. It
// returns the sequence number of the oldest mispredicted branch completing
// this cycle (noSeq if none): recovery always rolls back to the oldest
// offender.
func (m *Machine) completionStage() int64 {
	recoverSeq := noSeq
	bucket := m.buckets[m.now&m.bmask]
	for _, seq := range bucket {
		u := m.win.at(seq)
		// A mismatched seq means the slot was recycled after a squash; a
		// state other than issued means squashed in place (sequence numbers
		// are never reused, so the slot cannot belong to a committed
		// instruction still carrying this seq — those complete first).
		if u.seq != seq || u.state != sIssued || u.completeAt != m.now {
			continue
		}
		u.state = sCompleted
		m.emit(EvComplete, u)
		for i := 0; i < int(u.nsrc); i++ {
			m.ren.OnReaderDone(u.srcFile[i], u.srcPhys[i])
		}
		if u.hasDst {
			m.ren.OnWriterDone(u.dstFile, u.dstPhys, u.dstVirt, u.seq)
			m.cycleWrites[u.dstFile]++
		}
		if u.class == isa.ClassCondBr {
			m.bp.Update(u.pc, u.snapshot, u.taken)
			if u.mispredict {
				m.res.Mispredicts++
				if recoverSeq == noSeq || u.seq < recoverSeq {
					recoverSeq = u.seq
				}
			}
		}
		if u.depWaitHead != noSeq {
			// A completing store releases the forwarded loads waiting on it.
			m.wake(u.depWaitHead)
			u.depWaitHead = noSeq
		}
	}
	m.buckets[m.now&m.bmask] = bucket[:0]
	return recoverSeq
}

// recover squashes everything younger than the mispredicted branch at
// boundary, restores the speculative register state and rename maps, redirects
// fetch down the branch's actual path, and restores the branch history.
func (m *Machine) recover(boundary int64) {
	for seq := m.win.nextSeq - 1; seq > boundary; seq-- {
		u := m.win.at(seq)
		if u.seq != seq || u.state == sDead {
			continue // already a hole from a nested squash
		}
		m.squash(u)
	}
	// Drop squashed stores (they are the youngest entries).
	for len(m.storeQ) > m.storeQHead && m.storeQ[len(m.storeQ)-1] > boundary {
		m.storeQ = m.storeQ[:len(m.storeQ)-1]
	}
	// Drop squashed conditional branches from the frontier queue.
	for len(m.brQ) > m.brQHead && m.brQ[len(m.brQ)-1] > boundary {
		m.brQ = m.brQ[:len(m.brQ)-1]
	}
	if m.brIssueIdx > len(m.brQ) {
		m.brIssueIdx = len(m.brQ)
	}
	m.ren.DropKillsAfter(boundary)

	br := m.win.at(boundary)
	m.emit(EvRecover, br)
	m.bp.Recover(br.snapshot, br.taken)
	if br.taken {
		m.specPC = uint64(uint32(br.in.Imm))
	} else {
		m.specPC = br.pc + 1
	}
	m.specValid = true
	m.fetchResumeAt = m.now + 1 + int64(m.cfg.FrontEndDelay)
	m.redirectUntil = m.fetchResumeAt
	if m.cfg.CheckInvariants {
		// Rollback is where rename state is most at risk: audit that the
		// map tables and mapping chains were restored exactly.
		m.auditRename()
	}
}

// squash undoes one instruction (newest-first within a recovery).
func (m *Machine) squash(u *uop) {
	if u.state == sQueued {
		m.queueRemove(u)
	}
	if u.hasDst {
		m.writeSpec(u.dstFile, u.dstVirt, u.oldSpecVal)
	}
	var srcF []isa.RegFile
	var srcP []rename.Phys
	if u.nsrc > 0 {
		srcF, srcP = u.srcFile[:u.nsrc], u.srcPhys[:u.nsrc]
	}
	m.ren.OnSquash(u.dstFile, u.dstVirt, u.dstPhys, u.oldPhys, u.hasDst, u.state == sCompleted, srcF, srcP)
	if u.state == sIssued {
		if u.fill != nil {
			m.dc.CancelWaiter(u.fill)
		}
		if u.class == isa.ClassFPDiv {
			// The divider occupied by a removed instruction is available
			// again the next cycle (paper §2.2).
			for i := range m.divOwner {
				if m.divOwner[i] == u.seq {
					m.divOwner[i] = noSeq
					m.divBusyUntil[i] = m.now + 1
				}
			}
		}
	}
	u.state = sDead
	m.emit(EvSquash, u)
}

// advanceFrontier pops resolved conditional branches off the head of the
// branch queue and tells the rename unit the oldest still-unresolved one
// (which gates imprecise mapping kills).
func (m *Machine) advanceFrontier() {
	if m.skipFrontier {
		return
	}
	for m.brQHead < len(m.brQ) {
		seq := m.brQ[m.brQHead]
		if seq >= m.win.headSeq {
			u := m.win.at(seq)
			if u.seq == seq && u.state != sDead && u.state != sCompleted {
				break
			}
		}
		m.brQHead++
	}
	frontier := rename.NoFrontier
	if m.brQHead < len(m.brQ) {
		frontier = m.brQ[m.brQHead]
	}
	if m.brQHead > 1024 && m.brQHead*2 > len(m.brQ) {
		m.brQ = append(m.brQ[:0], m.brQ[m.brQHead:]...)
		if m.brIssueIdx > m.brQHead {
			m.brIssueIdx -= m.brQHead
		} else {
			m.brIssueIdx = 0
		}
		m.brQHead = 0
	}
	m.ren.SetFrontier(frontier)
}

// commitStage retires completed instructions in program order, up to twice
// the issue width per cycle.
func (m *Machine) commitStage() {
	budget := m.limits.Commit
	for budget > 0 && m.win.headSeq < m.win.nextSeq {
		u := m.win.at(m.win.headSeq)
		if u.seq != m.win.headSeq || u.state == sDead {
			m.win.headSeq++ // squash hole: not an instruction
			continue
		}
		if u.state != sCompleted {
			break
		}
		if u.class == isa.ClassStore && m.cfg.WriteBufferEntries > 0 && m.wbCount >= m.cfg.WriteBufferEntries {
			m.res.WriteBufferStalls++
			m.stallWB = true
			break // the write buffer is full: the store cannot commit
		}
		m.commit(u)
		m.win.headSeq++
		budget--
		if m.done {
			break
		}
	}
}

func (m *Machine) commit(u *uop) {
	if m.cfg.CheckInvariants {
		m.checkCommitOrder(u.seq)
	}
	m.res.Committed++
	m.commitsCycle++
	m.emit(EvCommit, u)
	if t := m.cfg.Telemetry; t != nil {
		t.DispatchToIssue.Record(u.issueAt - u.dispatchAt)
		t.IssueToComplete.Record(u.completeAt - u.issueAt)
		t.CompleteToCommit.Record(m.now - u.completeAt)
		if u.miss {
			t.LoadMissLatency.Record(u.completeAt - u.issueAt)
		}
	}
	m.sum.Add(u.pc, u.in.Op, u.result)
	switch u.class {
	case isa.ClassLoad:
		m.res.CommittedLoads++
	case isa.ClassCondBr:
		m.res.CommittedCondBr++
	case isa.ClassStore:
		// Architectural memory is written at commit via the write buffer
		// (which, under the paper's assumption, consumes no bandwidth and
		// never stalls; a finite buffer was counted before we got here).
		m.wbCount++
		m.mem.Write64(u.addr, u.result)
		if m.storeQHead >= len(m.storeQ) || m.storeQ[m.storeQHead] != u.seq {
			panic("core: store queue out of sync at commit")
		}
		m.storeQHead++
		if m.storeQHead > 1024 && m.storeQHead*2 > len(m.storeQ) {
			m.storeQ = append(m.storeQ[:0], m.storeQ[m.storeQHead:]...)
			m.storeQHead = 0
		}
	case isa.ClassHalt:
		m.done = true
		m.res.Halted = true
	}
	if u.hasDst {
		m.ren.OnCommitRetire(u.dstFile, u.oldPhys)
	}
}

// issueStage selects ready dispatch-queue instructions oldest-first, subject
// to the per-class issue limits (and, when configured, the register-file
// read-port budget). Only the ready set is scanned: a uop enters it when its
// last producer's completion broadcast drops its waitCount to zero, so
// instructions still waiting on operands — which the polled scheduler
// re-examined every cycle — cost nothing here. Scan order is sequence order,
// and every uop the old full-queue walk could have issued is ready by the
// time this stage runs (completion precedes issue within the cycle), so the
// oldest-first selection is unchanged.
func (m *Machine) issueStage() {
	remaining := m.win.readyCount
	if remaining == 0 {
		return
	}
	m.slots.Reset()
	// The ready bitmap in slot order starting at headSeq is sequence order:
	// slots [head&mask, len) hold the oldest instructions, [0, head&mask)
	// the wrap.
	n := int64(len(m.win.buf))
	h := m.win.headSeq & m.win.mask
	if m.issueScan(&m.slots, &remaining, h, n, m.win.headSeq-h) {
		m.issueScan(&m.slots, &remaining, 0, h, m.win.headSeq+(n-h))
	}
}

// issueScan visits ready bits with slot index in [lo, hi) (the seq of slot i
// is base+i), issuing whatever the structural checks and slot limits admit.
// Returns false once the issue slots are exhausted or every ready bit has
// been visited (remaining counts the ones not yet seen — the words past the
// last one are guaranteed empty and need no scan). issue clears the current
// uop's bit, which is already folded into the local word copy; nothing
// inserts bits during the scan.
func (m *Machine) issueScan(slots *dispatch.Slots, remaining *int, lo, hi, base int64) bool {
	if lo >= hi {
		return true
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		word := m.win.ready[wi]
		if wi == lo>>6 {
			word &= ^uint64(0) << uint(lo&63)
		}
		if end := (wi + 1) << 6; end > hi {
			word &= 1<<uint(hi&63) - 1
		}
		for word != 0 {
			b := int64(bits.TrailingZeros64(word))
			word &= word - 1
			u := m.win.at(base + wi<<6 + b)
			if m.canIssueStructural(u) && m.readPortsAvailable(u) && slots.TryIssue(u.class) {
				m.issue(u)
			}
			*remaining--
			if *remaining == 0 || slots.Full() {
				return false
			}
		}
	}
	return true
}

// readPortsAvailable checks the per-cycle read-port budget for an
// instruction's operands (cycleReads accumulates as instructions issue).
func (m *Machine) readPortsAvailable(u *uop) bool {
	budget := m.cfg.ReadPortsPerFile
	if budget == 0 {
		return true
	}
	var need [2]int
	for i := 0; i < int(u.nsrc); i++ {
		if u.srcPhys[i] != rename.PhysZero {
			need[u.srcFile[i]]++
		}
	}
	return m.cycleReads[0]+need[0] <= budget && m.cycleReads[1]+need[1] <= budget
}

// canIssueStructural checks structural issue conditions other than the
// per-class issue slots. Operand readiness is not re-checked: membership in
// the ready set already means every source writer has completed.
func (m *Machine) canIssueStructural(u *uop) bool {
	switch u.class {
	case isa.ClassFPDiv:
		return m.freeDivider() >= 0
	case isa.ClassLoad:
		// A forwarded load's dependent store counted toward waitCount, so a
		// ready load's store has already completed; only the cache-port
		// check remains for loads that go to memory.
		if !u.forwarded && !m.dc.CanAcceptLoad(u.addr, m.now) {
			return false
		}
	case isa.ClassCondBr:
		if m.cfg.InOrderBranches && !m.isOldestUnissuedBranch(u.seq) {
			return false
		}
	}
	return true
}

// isOldestUnissuedBranch reports whether seq is the oldest conditional
// branch still waiting in the dispatch queue (the InOrderBranches ablation).
// brIssueIdx advances permanently past branches that have left the queue —
// leaving the queued state is irreversible, and recovery only truncates the
// tail of brQ — so the scan is amortised O(1) per call instead of walking
// every in-flight branch.
func (m *Machine) isOldestUnissuedBranch(seq int64) bool {
	for m.brIssueIdx < len(m.brQ) {
		s := m.brQ[m.brIssueIdx]
		if s >= m.win.headSeq {
			u := m.win.at(s)
			if u.seq == s && u.state == sQueued {
				// s is the oldest queued branch; brQ is in program order,
				// so seq is oldest exactly when the cursor reached it.
				return s >= seq
			}
		}
		m.brIssueIdx++
	}
	return true
}

func (m *Machine) freeDivider() int {
	for i, busy := range m.divBusyUntil {
		if busy <= m.now {
			return i
		}
	}
	return -1
}

func (m *Machine) issue(u *uop) {
	u.state = sIssued
	u.issueAt = m.now
	m.emit(EvIssue, u)
	m.queueRemove(u)
	m.res.Issued++

	switch u.class {
	case isa.ClassIntALU, isa.ClassHalt:
		u.completeAt = m.now + latIntALU
	case isa.ClassIntMul:
		u.completeAt = m.now + latIntMul
	case isa.ClassFP:
		u.completeAt = m.now + latFP
	case isa.ClassFPDiv:
		lat := int64(latFDivS)
		if u.in.Op == isa.OpFDivD {
			lat = latFDivD
		}
		u.completeAt = m.now + lat
		d := m.freeDivider()
		m.divBusyUntil[d] = m.now + lat
		m.divOwner[d] = u.seq
	case isa.ClassLoad:
		m.res.IssuedLoads++
		if u.forwarded {
			m.res.ForwardedLoads++
			u.completeAt = m.now + int64(m.cfg.DCache.HitLatency) + 1
		} else {
			r := m.dc.Load(u.addr, m.now)
			u.completeAt = r.DataReady
			u.fill = r.Fill
			if r.Miss {
				m.res.LoadMisses++
				u.miss = true
			}
		}
	case isa.ClassStore:
		m.res.IssuedStores++
		m.dc.Store(u.addr, m.now)
		u.completeAt = m.now + latStore
	case isa.ClassCondBr:
		m.res.IssuedCondBr++
		u.completeAt = m.now + latBranch
	case isa.ClassCtrl:
		u.completeAt = m.now + latBranch
	}
	if u.hasDst {
		m.ren.OnIssue(u.dstFile, u.dstPhys)
	}
	for i := 0; i < int(u.nsrc); i++ {
		if u.srcPhys[i] != rename.PhysZero {
			m.cycleReads[u.srcFile[i]]++
		}
	}
	m.buckets[u.completeAt&m.bmask] = append(m.buckets[u.completeAt&m.bmask], u.seq)
}

// dispatchStage fetches along the predicted path, functionally executes,
// renames, and inserts instructions into the dispatch queue.
func (m *Machine) dispatchStage() {
	if !m.specValid || m.now < m.fetchResumeAt {
		return
	}
	for inserted := 0; inserted < m.limits.Insert; inserted++ {
		if m.specPC >= uint64(len(m.text)) {
			// Wrong-path execution ran off the text segment (e.g. an
			// indirect jump through a garbage register). Fetch idles until
			// the mispredicted branch recovers.
			m.specValid = false
			return
		}
		d := &m.dec[m.specPC]
		if m.queueFull(d.Class) {
			m.stallQueue = true
			return
		}
		if readyAt := m.ic.Fetch(prog.PCByteAddr(m.specPC), m.now); readyAt > m.now {
			m.fetchResumeAt = readyAt
			m.icacheStallUntil = readyAt
			return
		}
		if d.HasDst && !m.ren.HasFree(d.Dst.File) {
			m.stallReg = true
			return
		}
		m.dispatchOne(d)
		if !m.specValid {
			return // halt fetched: nothing sensible follows
		}
	}
}

// dispatchOne functionally executes and inserts a single instruction.
func (m *Machine) dispatchOne(d *prog.Predec) {
	in := d.In
	u := m.win.alloc()
	u.pc = m.specPC
	u.in = in
	u.class = d.Class
	u.dispatchAt = m.now

	srcs := d.Srcs[:d.NSrc]
	u.nsrc = d.NSrc
	var srcVals [2]uint64
	for i, r := range srcs {
		u.srcFile[i] = r.File
		p, ready := m.ren.ReadSource(r)
		u.srcPhys[i] = p
		srcVals[i] = m.readSpec(r)
		if !ready {
			// The producer has not completed: count the operand outstanding
			// and register for its completion broadcast.
			u.waitCount++
			u.waitLink[i] = m.ren.AddWaiter(r.File, p, u.seq<<1|int64(i))
		}
	}

	nextPC := u.pc + 1
	switch u.class {
	case isa.ClassIntALU, isa.ClassIntMul:
		b := srcVals[1]
		if in.UseImm {
			b = uint64(int64(in.Imm))
		}
		u.result = isa.EvalInt(in.Op, srcVals[0], b)
	case isa.ClassFP:
		switch in.Op {
		case isa.OpItoF:
			u.result = isa.EvalItoF(srcVals[0])
		case isa.OpFtoI:
			u.result = isa.EvalFtoI(srcVals[0])
		default:
			u.result = isa.EvalFP(in.Op, srcVals[0], srcVals[1])
		}
	case isa.ClassFPDiv:
		u.result = isa.EvalFP(in.Op, srcVals[0], srcVals[1])
	case isa.ClassLoad:
		u.addr = mem.Align(srcVals[0] + uint64(int64(in.Imm)))
		u.result, u.depStore = m.loadSpec(u.addr)
		u.forwarded = u.depStore != noSeq
		if u.forwarded {
			if dep := m.win.at(u.depStore); dep.state != sCompleted {
				// The matching store is still in flight: treat it as a
				// producer. Loads have one register source, so link slot 1
				// is free for the store's chain.
				u.waitCount++
				u.waitLink[1] = dep.depWaitHead
				dep.depWaitHead = u.seq<<1 | 1
			}
		}
	case isa.ClassStore:
		u.addr = mem.Align(srcVals[0] + uint64(int64(in.Imm)))
		u.result = srcVals[1]
		m.storeQ = append(m.storeQ, u.seq)
	case isa.ClassCondBr:
		u.taken = isa.CondTaken(in.Op, srcVals[0])
		u.predTaken, u.snapshot = m.bp.Predict(u.pc)
		m.bp.OnInsert(u.predTaken)
		u.mispredict = u.taken != u.predTaken
		if u.taken {
			u.result = 1
		}
		if u.predTaken {
			nextPC = uint64(uint32(in.Imm))
		}
		if !m.skipFrontier {
			m.brQ = append(m.brQ, u.seq)
		}
	case isa.ClassCtrl:
		switch in.Op {
		case isa.OpJmp:
			nextPC = uint64(uint32(in.Imm))
		case isa.OpCall:
			u.result = u.pc + 1
			nextPC = uint64(uint32(in.Imm))
		case isa.OpJr:
			nextPC = srcVals[0]
		}
	case isa.ClassHalt:
		m.specValid = false
	}

	if d.HasDst {
		dst := d.Dst
		u.hasDst = true
		u.dstFile = dst.File
		u.dstVirt = dst.Idx
		u.dstPhys, u.oldPhys = m.ren.Rename(u.seq, dst)
		u.oldSpecVal = m.readSpec(dst)
		m.writeSpec(dst.File, dst.Idx, u.result)
	}

	u.state = sQueued
	m.queueAdd(u)
	m.specPC = nextPC
	m.emit(EvDispatch, u)
}

// classifyCycle attributes the cycle that just executed to one top-down
// accounting bucket. A cycle that retires at full commit bandwidth is
// healthy; a partially-retiring cycle is charged to commit; a zero-commit
// cycle is charged to the nearest bottleneck, walking from the back of the
// pipeline (commit blocked, window head under a cache miss) to the front
// (dispatch stalls, fetch starvation).
func (m *Machine) classifyCycle() telemetry.Bucket {
	switch {
	case m.commitsCycle >= m.limits.Commit:
		return telemetry.BucketCommitFull
	case m.commitsCycle > 0:
		return telemetry.BucketCommitPartial
	}
	if m.stallWB {
		return telemetry.BucketWriteBuffer
	}
	if m.win.headSeq < m.win.nextSeq {
		u := m.win.at(m.win.headSeq)
		if u.seq == m.win.headSeq && u.state == sIssued && u.miss && u.completeAt > m.now {
			return telemetry.BucketDCacheMiss
		}
	}
	if m.stallQueue {
		return telemetry.BucketQueueFull
	}
	if m.stallReg {
		return telemetry.BucketNoFreeReg
	}
	if m.now < m.redirectUntil {
		return telemetry.BucketRecovery
	}
	if m.now < m.icacheStallUntil {
		return telemetry.BucketICacheMiss
	}
	return telemetry.BucketOther
}

// statsStage records per-cycle statistics.
func (m *Machine) statsStage() {
	m.res.Cycles = m.now
	if t := m.cfg.Telemetry; t != nil {
		t.Account.Observe(m.classifyCycle())
	}
	if m.cfg.CounterSampler != nil && m.now >= m.nextCounterAt {
		every := m.cfg.CounterEvery
		if every == 0 {
			every = 1
		}
		m.nextCounterAt = m.now + every
		m.cfg.CounterSampler(CounterSample{
			Cycle:          m.now,
			QueueOccupancy: m.qTotal,
			FreeIntRegs:    m.ren.FreeCount(isa.IntFile),
			FreeFPRegs:     m.ren.FreeCount(isa.FPFile),
		})
	}
	if m.ren.FreeCount(isa.IntFile) == 0 || m.ren.FreeCount(isa.FPFile) == 0 {
		m.res.NoFreeRegCycles++
	}
	if m.stallReg {
		m.res.DispatchRegStalls++
	}
	if m.stallQueue {
		m.res.DispatchQueueFullStalls++
	}
	if m.cfg.TrackLiveRegisters {
		m.res.Live[isa.IntFile].record(m.ren.LiveByCat(isa.IntFile))
		m.res.Live[isa.FPFile].record(m.ren.LiveByCat(isa.FPFile))
		m.res.Ports[isa.IntFile].record(m.cycleReads[isa.IntFile], m.cycleWrites[isa.IntFile])
		m.res.Ports[isa.FPFile].record(m.cycleReads[isa.FPFile], m.cycleWrites[isa.FPFile])
	}
	m.cycleReads = [2]int{}
	m.cycleWrites = [2]int{}
}
