package core

import (
	"fmt"

	"regsim/internal/bpred"
	"regsim/internal/cache"
	"regsim/internal/dispatch"
	"regsim/internal/isa"
	"regsim/internal/mem"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/reuse"
)

// SnapVersion identifies the machine-snapshot format revision. It is bound
// into every snapshot and folded into checkpoint-store fingerprints; bump it
// whenever the serialized state's layout OR the machine state it must cover
// changes (a new mutable Machine field means old snapshots are incomplete).
//
// Revision 2: an untracked run's rename state carries only the bookkeeping
// it keeps (no live-register categories; under the precise model, no kills
// or mapping chains).
const SnapVersion = "core-snap-2"

// CfgSnap is the subset of Config that determines simulation behaviour —
// every field except the hooks (which carry no simulation state) and
// CheckInvariants (which observes but never perturbs). A snapshot may only
// resume under a config whose CfgSnap matches the source's (see Resume).
type CfgSnap struct {
	Width              int          `json:"width"`
	QueueSize          int          `json:"queue"`
	RegsPerFile        int          `json:"regs"`
	Model              rename.Model `json:"model"`
	DCache             cache.Config `json:"dcache"`
	ICacheMissPenalty  int          `json:"icacheMiss"`
	FrontEndDelay      int          `json:"frontEnd"`
	TrackLiveRegisters bool         `json:"track,omitempty"`
	InOrderBranches    bool         `json:"inOrderBr,omitempty"`
	Predictor          bpred.Kind   `json:"predictor,omitempty"`
	WriteBufferEntries int          `json:"wbEntries,omitempty"`
	WriteBufferDrain   int          `json:"wbDrain,omitempty"`
	ReadPortsPerFile   int          `json:"readPorts,omitempty"`
	SplitQueues        bool         `json:"splitQueues,omitempty"`
	InsertPerCycle     int          `json:"insert,omitempty"`
	CommitPerCycle     int          `json:"commit,omitempty"`
}

func cfgSnapOf(cfg Config) CfgSnap {
	return CfgSnap{
		Width:              cfg.Width,
		QueueSize:          cfg.QueueSize,
		RegsPerFile:        cfg.RegsPerFile,
		Model:              cfg.Model,
		DCache:             cfg.DCache,
		ICacheMissPenalty:  cfg.ICacheMissPenalty,
		FrontEndDelay:      cfg.FrontEndDelay,
		TrackLiveRegisters: cfg.TrackLiveRegisters,
		InOrderBranches:    cfg.InOrderBranches,
		Predictor:          cfg.Predictor,
		WriteBufferEntries: cfg.WriteBufferEntries,
		WriteBufferDrain:   cfg.WriteBufferDrain,
		ReadPortsPerFile:   cfg.ReadPortsPerFile,
		SplitQueues:        cfg.SplitQueues,
		InsertPerCycle:     cfg.InsertPerCycle,
		CommitPerCycle:     cfg.CommitPerCycle,
	}
}

// UopSnap is one window slot's serialized state. Slots are captured for the
// whole live span [headSeq, nextSeq), including squash holes: a hole's seq
// and state gate the commit scan exactly as they did in the source machine.
// The instruction is carried as its ISA encoding; class is re-derived.
type UopSnap struct {
	Seq         int64          `json:"seq"`
	PC          uint64         `json:"pc"`
	Enc         uint64         `json:"enc"`
	State       uint8          `json:"st"`
	WaitCount   uint8          `json:"wc,omitempty"`
	WaitLink    [2]int64       `json:"wl"`
	DepWaitHead int64          `json:"dwh"`
	NSrc        uint8          `json:"ns,omitempty"`
	HasDst      bool           `json:"hd,omitempty"`
	DstVirt     uint8          `json:"dv,omitempty"`
	SrcFile     [2]uint8       `json:"sf"`
	SrcPhys     [2]rename.Phys `json:"sp"`
	DstFile     uint8          `json:"df,omitempty"`
	DstPhys     rename.Phys    `json:"dp"`
	OldPhys     rename.Phys    `json:"op"`
	Result      uint64         `json:"res,omitempty"`
	Addr        uint64         `json:"addr,omitempty"`
	OldSpecVal  uint64         `json:"osv,omitempty"`
	DepStore    int64          `json:"ds"`
	FillLine    uint64         `json:"fl,omitempty"`
	HasFill     bool           `json:"hf,omitempty"`
	Forwarded   bool           `json:"fw,omitempty"`
	Taken       bool           `json:"tk,omitempty"`
	PredTaken   bool           `json:"pt,omitempty"`
	Mispredict  bool           `json:"mp,omitempty"`
	BPSnap      bpred.History  `json:"bps,omitempty"`
	CompleteAt  int64          `json:"ca"`
	DispatchAt  int64          `json:"da"`
	IssueAt     int64          `json:"ia"`
	Miss        bool           `json:"ms,omitempty"`
}

// WindowSnap is the instruction window's serialized state.
type WindowSnap struct {
	RingSize  int       `json:"ring"`
	HeadSeq   int64     `json:"head"`
	NextSeq   int64     `json:"next"`
	Uops      []UopSnap `json:"uops,omitempty"`
	ReadySeqs []int64   `json:"ready,omitempty"`
}

// BucketSnap is one non-empty completion-calendar bucket, entries in
// append order (completion order within a cycle follows it).
type BucketSnap struct {
	Index int     `json:"i"`
	Seqs  []int64 `json:"seqs"`
}

// Snapshot is a full-fidelity machine checkpoint: everything mutable in the
// Machine, captured at a cycle boundary. Restoring it (Resume) yields a
// machine whose every future observable — cycle counts, statistics, commit
// checksum — is bit-identical to the source machine's, which is what lets a
// sweep fast-forward configs through a shared warm-up prefix and still pass
// the byte-identity golden suite.
type Snapshot struct {
	Version string  `json:"version"`
	ProgID  string  `json:"progID"`
	Cfg     CfgSnap `json:"cfg"`

	Now           int64 `json:"now"`
	FetchResumeAt int64 `json:"fetchResumeAt"`
	Done          bool  `json:"done,omitempty"`

	SpecRegs  [2][isa.NumArchRegs]uint64 `json:"specRegs"`
	SpecPC    uint64                     `json:"specPC"`
	SpecValid bool                       `json:"specValid"`

	QCounts [3]int `json:"qCounts"`
	QTotal  int    `json:"qTotal"`

	StoreQ     []int64 `json:"storeQ,omitempty"`
	BrQ        []int64 `json:"brQ,omitempty"`
	BrIssueIdx int     `json:"brIssueIdx"`

	Buckets      []BucketSnap `json:"buckets,omitempty"`
	DivBusyUntil []int64      `json:"divBusy"`
	DivOwner     []int64      `json:"divOwner"`

	WBCount     int   `json:"wbCount,omitempty"`
	WBNextDrain int64 `json:"wbNextDrain,omitempty"`

	SumState      uint64 `json:"sum"`
	LastCommitSeq int64  `json:"lastCommitSeq"`

	Win *WindowSnap      `json:"win"`
	Ren *rename.Snapshot `json:"ren"`
	BP  *bpred.Snapshot  `json:"bp"`
	DC  *cache.DSnap     `json:"dc"`
	IC  *cache.ISnap     `json:"ic"`
	Mem *mem.Snap        `json:"mem"`
	Res Result           `json:"res"`
}

// cloneResultInto deep-copies src into dst, reusing dst's histogram
// slices (src's are shared with, and further mutated by, the running
// machine). An empty histogram copies as nil.
func cloneResultInto(dst, src *Result) {
	live, ports := dst.Live, dst.Ports
	*dst = *src
	for f := range dst.Live {
		for c := range dst.Live[f].Cum {
			dst.Live[f].Cum[c] = reuse.Copy(live[f].Cum[c], src.Live[f].Cum[c])
		}
	}
	for f := range dst.Ports {
		dst.Ports[f].Reads = reuse.Copy(ports[f].Reads, src.Ports[f].Reads)
		dst.Ports[f].Writes = reuse.Copy(ports[f].Writes, src.Ports[f].Writes)
	}
}

// Clone returns a deep copy of the result (the histogram slices are the
// only reference-typed fields). Checkpoint stores hand one entry to many
// consumers and must not alias the mutable slices between them.
func (r *Result) Clone() *Result {
	c := new(Result)
	cloneResultInto(c, r)
	return c
}

// Snapshot captures the machine's full state at the current cycle boundary
// into a new snapshot graph (see SnapshotInto).
func (m *Machine) Snapshot() (*Snapshot, error) {
	s := new(Snapshot)
	if err := m.SnapshotInto(s); err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotInto captures the machine's full state at the current cycle
// boundary into s. It overwrites every field of s and reuses the slices and
// component snapshots s already holds, so a worker that captures into one
// scratch graph run after run stops allocating once the graph has grown to
// its working size. The captured state shares nothing with the machine.
//
// It refuses machines with per-event hooks attached (tracer, telemetry,
// counter sampler): their sinks hold run state outside the machine, so a
// resumed run could not reproduce their streams — and checkpointed runs are
// exactly the ones that skip work the hooks would have observed.
func (m *Machine) SnapshotInto(s *Snapshot) error {
	if m.cfg.Tracer != nil || m.cfg.Telemetry != nil || m.cfg.CounterSampler != nil {
		return fmt.Errorf("core: cannot snapshot a machine with tracer/telemetry/counter hooks attached")
	}
	if m.invErr != nil {
		return fmt.Errorf("core: cannot snapshot after an invariant violation: %w", m.invErr)
	}
	s.Version, s.ProgID, s.Cfg = SnapVersion, m.art.ID(), cfgSnapOf(m.cfg)
	s.Now, s.FetchResumeAt, s.Done = m.now, m.fetchResumeAt, m.done
	s.SpecRegs, s.SpecPC, s.SpecValid = m.spec, m.specPC, m.specValid
	s.QCounts, s.QTotal = m.qCounts, m.qTotal
	s.StoreQ = reuse.Copy(s.StoreQ, m.storeQ[m.storeQHead:])
	s.BrQ = reuse.Copy(s.BrQ, m.brQ[m.brQHead:])
	s.BrIssueIdx = max(m.brIssueIdx-m.brQHead, 0)
	s.DivBusyUntil = reuse.Copy(s.DivBusyUntil, m.divBusyUntil)
	s.DivOwner = reuse.Copy(s.DivOwner, m.divOwner)
	s.WBCount, s.WBNextDrain = m.wbCount, m.wbNextDrain
	s.SumState, s.LastCommitSeq = m.sum.State(), m.lastCommitSeq
	cloneResultInto(&s.Res, &m.res)

	n := 0
	for _, b := range m.buckets {
		if len(b) > 0 {
			n++
		}
	}
	s.Buckets = reuse.Slice(s.Buckets, n)
	n = 0
	for i, b := range m.buckets {
		if len(b) > 0 {
			s.Buckets[n].Index, s.Buckets[n].Seqs = i, reuse.Copy(s.Buckets[n].Seqs, b)
			n++
		}
	}

	s.Ren = reuse.OrNew(s.Ren)
	m.ren.SnapshotInto(s.Ren)
	s.BP = reuse.OrNew(s.BP)
	m.bp.SnapshotInto(s.BP)
	s.DC = reuse.OrNew(s.DC)
	m.dc.SnapshotInto(s.DC)
	s.IC = reuse.OrNew(s.IC)
	m.ic.SnapshotInto(s.IC)
	s.Mem = reuse.OrNew(s.Mem)
	m.mem.SnapshotInto(s.Mem)

	w := m.win
	ws := reuse.OrNew(s.Win)
	ws.RingSize, ws.HeadSeq, ws.NextSeq = len(w.buf), w.headSeq, w.nextSeq
	ws.Uops = reuse.Slice(ws.Uops, int(w.nextSeq-w.headSeq))
	ws.ReadySeqs = ws.ReadySeqs[:0]
	for i := range ws.Uops {
		seq := w.headSeq + int64(i)
		u := w.at(seq)
		us := UopSnap{
			Seq: u.seq, PC: u.pc, Enc: isa.Encode(u.in), State: u.state,
			WaitCount: u.waitCount, WaitLink: u.waitLink, DepWaitHead: u.depWaitHead,
			NSrc: u.nsrc, HasDst: u.hasDst, DstVirt: u.dstVirt,
			SrcFile: [2]uint8{uint8(u.srcFile[0]), uint8(u.srcFile[1])},
			SrcPhys: u.srcPhys, DstFile: uint8(u.dstFile), DstPhys: u.dstPhys, OldPhys: u.oldPhys,
			Result: u.result, Addr: u.addr, OldSpecVal: u.oldSpecVal, DepStore: u.depStore,
			Forwarded: u.forwarded, Taken: u.taken, PredTaken: u.predTaken,
			Mispredict: u.mispredict, BPSnap: u.snapshot,
			CompleteAt: u.completeAt, DispatchAt: u.dispatchAt, IssueAt: u.issueAt, Miss: u.miss,
		}
		if u.fill != nil {
			us.HasFill = true
			us.FillLine = u.fill.LineAddrOf()
		}
		ws.Uops[i] = us
		if w.isReady(seq) {
			ws.ReadySeqs = append(ws.ReadySeqs, seq)
		}
	}
	ws.ReadySeqs = reuse.Slice(ws.ReadySeqs, len(ws.ReadySeqs))
	s.Win = ws
	return nil
}

// RegWatermarks returns both files' rename allocation watermarks (highest
// physical register ever allocated). The experiment layer records them so a
// pressure-free result can answer a smaller target file (servable iff
// target regs ≥ watermark+2; see internal/exper/siblings.go).
func (m *Machine) RegWatermarks() [2]int {
	return [2]int{m.ren.Watermark(isa.IntFile), m.ren.Watermark(isa.FPFile)}
}

// PressureFreeSoFar reports whether the run has never ticked a register-
// pressure counter: the precondition for sharing its result across
// register-file sizes (the trajectory so far is provably independent of the
// file size, for any size ≥ watermark+2).
func (m *Machine) PressureFreeSoFar() bool {
	return m.res.NoFreeRegCycles == 0 && m.res.DispatchRegStalls == 0
}

// Validate structurally checks a decoded snapshot so that Resume on
// arbitrary (fuzzed, corrupt) bytes returns an error instead of panicking.
func (s *Snapshot) Validate() error {
	if s.Version != SnapVersion {
		return fmt.Errorf("core snapshot: version %q, want %q", s.Version, SnapVersion)
	}
	if s.Win == nil || s.Ren == nil || s.BP == nil || s.DC == nil || s.IC == nil || s.Mem == nil {
		return fmt.Errorf("core snapshot: missing component state")
	}
	cfg := s.Cfg
	if cfg.Width != 4 && cfg.Width != 8 {
		return fmt.Errorf("core snapshot: width %d", cfg.Width)
	}
	if cfg.QueueSize < 1 || cfg.RegsPerFile < rename.MinRegsPerFile {
		return fmt.Errorf("core snapshot: queue %d / regs %d out of range", cfg.QueueSize, cfg.RegsPerFile)
	}
	w := s.Win
	if w.RingSize < 256 || w.RingSize > 1<<24 || w.RingSize&(w.RingSize-1) != 0 {
		return fmt.Errorf("core snapshot: ring size %d not a power of two in range", w.RingSize)
	}
	occ := w.NextSeq - w.HeadSeq
	if w.HeadSeq < 0 || occ < 0 || occ > int64(w.RingSize) {
		return fmt.Errorf("core snapshot: window span [%d, %d) invalid for ring %d", w.HeadSeq, w.NextSeq, w.RingSize)
	}
	if int64(len(w.Uops)) != occ {
		return fmt.Errorf("core snapshot: %d uops for span of %d", len(w.Uops), occ)
	}
	for i := range w.Uops {
		u := &w.Uops[i]
		if u.Seq != w.HeadSeq+int64(i) {
			return fmt.Errorf("core snapshot: uop %d has seq %d, want %d", i, u.Seq, w.HeadSeq+int64(i))
		}
		if u.State > sCompleted {
			return fmt.Errorf("core snapshot: uop seq %d has state %d", u.Seq, u.State)
		}
		if u.NSrc > 2 {
			return fmt.Errorf("core snapshot: uop seq %d has %d sources", u.Seq, u.NSrc)
		}
		if _, err := isa.Decode(u.Enc); err != nil {
			return fmt.Errorf("core snapshot: uop seq %d: %v", u.Seq, err)
		}
	}
	for _, seq := range w.ReadySeqs {
		if seq < w.HeadSeq || seq >= w.NextSeq {
			return fmt.Errorf("core snapshot: ready seq %d outside window", seq)
		}
	}
	inWindow := func(seq int64) bool { return seq >= w.HeadSeq && seq < w.NextSeq }
	for _, seq := range s.StoreQ {
		if !inWindow(seq) {
			return fmt.Errorf("core snapshot: store-queue seq %d outside window", seq)
		}
	}
	for _, seq := range s.BrQ {
		if !inWindow(seq) {
			return fmt.Errorf("core snapshot: branch-queue seq %d outside window", seq)
		}
	}
	if s.BrIssueIdx < 0 || s.BrIssueIdx > len(s.BrQ) {
		return fmt.Errorf("core snapshot: branch issue cursor %d for queue of %d", s.BrIssueIdx, len(s.BrQ))
	}
	for _, b := range s.Buckets {
		if b.Index < 0 {
			return fmt.Errorf("core snapshot: negative bucket index %d", b.Index)
		}
		for _, seq := range b.Seqs {
			if seq < 0 {
				return fmt.Errorf("core snapshot: negative bucket seq %d", seq)
			}
		}
	}
	if len(s.DivBusyUntil) != len(s.DivOwner) {
		return fmt.Errorf("core snapshot: divider arrays sized %d/%d", len(s.DivBusyUntil), len(s.DivOwner))
	}
	if s.QTotal < 0 || s.QCounts[0] < 0 || s.QCounts[1] < 0 || s.QCounts[2] < 0 {
		return fmt.Errorf("core snapshot: negative queue occupancy")
	}
	if err := s.Ren.Validate(); err != nil {
		return err
	}
	if err := s.BP.Validate(); err != nil {
		return err
	}
	if err := s.DC.Validate(s.Cfg.DCache); err != nil {
		return err
	}
	if err := s.Mem.Validate(); err != nil {
		return err
	}
	return nil
}

// Resume rebuilds a machine from a snapshot under cfg, against the same
// artifact the snapshot was taken from. cfg must match the snapshot's
// captured configuration in every behaviour-affecting dimension, register-
// file size included; the resumed run is then bit-identical to the cold run.
func Resume(cfg Config, art *prog.Artifact, s *Snapshot) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tracer != nil || cfg.Telemetry != nil || cfg.CounterSampler != nil {
		return nil, fmt.Errorf("core: cannot resume with tracer/telemetry/counter hooks attached")
	}
	if cfg.WriteBufferEntries > 0 && cfg.WriteBufferDrain == 0 {
		cfg.WriteBufferDrain = 4
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.ProgID != art.ID() {
		return nil, fmt.Errorf("core: snapshot is for program %.12s…, artifact is %.12s…", s.ProgID, art.ID())
	}
	if cfgSnapOf(cfg) != s.Cfg {
		return nil, fmt.Errorf("core: snapshot configuration differs from the resuming one")
	}
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
	if len(s.DivBusyUntil) != limits.FPDivUnits() {
		return nil, fmt.Errorf("core snapshot: %d divider units, config wants %d", len(s.DivBusyUntil), limits.FPDivUnits())
	}
	ren, err := rename.RestoreUnit(s.Ren, cfg.RegsPerFile, cfg.Model, cfg.TrackLiveRegisters)
	if err != nil {
		return nil, err
	}
	bp, err := bpred.Restore(s.BP)
	if err != nil {
		return nil, err
	}
	dc, err := cache.RestoreData(cfg.DCache, s.DC)
	if err != nil {
		return nil, err
	}
	ic, err := cache.RestoreICache(cfg.ICacheMissPenalty, s.IC)
	if err != nil {
		return nil, err
	}
	memory, err := mem.Restore(s.Mem)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		limits:        limits,
		slots:         dispatch.NewSlots(limits),
		art:           art,
		text:          art.Program().Text,
		dec:           art.Dec(),
		ren:           ren,
		bp:            bp,
		dc:            dc,
		ic:            ic,
		mem:           memory,
		now:           s.Now,
		fetchResumeAt: s.FetchResumeAt,
		done:          s.Done,
		spec:          s.SpecRegs,
		specPC:        s.SpecPC,
		specValid:     s.SpecValid,
		qCounts:       s.QCounts,
		qTotal:        s.QTotal,
		storeQ:        append(make([]int64, 0, max(len(s.StoreQ), 64)), s.StoreQ...),
		brQ:           append(make([]int64, 0, max(len(s.BrQ), 64)), s.BrQ...),
		brIssueIdx:    s.BrIssueIdx,
		wbCount:       s.WBCount,
		wbNextDrain:   s.WBNextDrain,
		lastCommitSeq: s.LastCommitSeq,
	}
	cloneResultInto(&m.res, &s.Res)
	m.sum.SetState(s.SumState)
	m.ren.SetWakeFunc(m.wake)
	m.skipFrontier = !ren.Kills() && !cfg.InOrderBranches
	// Completion calendar: same sizing derivation as NewFromArtifact, then
	// the captured buckets drop back into place.
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
	bbuf := make([]int64, n*16)
	for i := range m.buckets {
		m.buckets[i], bbuf = bbuf[:0:16], bbuf[16:]
	}
	for _, b := range s.Buckets {
		if b.Index >= len(m.buckets) {
			return nil, fmt.Errorf("core snapshot: bucket index %d beyond calendar of %d", b.Index, len(m.buckets))
		}
		m.buckets[b.Index] = append(m.buckets[b.Index], b.Seqs...)
	}
	m.divBusyUntil = append([]int64(nil), s.DivBusyUntil...)
	m.divOwner = append([]int64(nil), s.DivOwner...)
	// Window: rebuild the ring at its captured size (growth history affects
	// slot aliasing) and decode each live slot in place.
	ring := int64(s.Win.RingSize)
	w := &window{
		buf:     make([]uop, ring),
		ready:   make([]uint64, ring>>6),
		mask:    ring - 1,
		headSeq: s.Win.HeadSeq,
		nextSeq: s.Win.NextSeq,
	}
	for i := range s.Win.Uops {
		us := &s.Win.Uops[i]
		in, err := isa.Decode(us.Enc)
		if err != nil {
			return nil, fmt.Errorf("core snapshot: uop seq %d: %w", us.Seq, err)
		}
		u := w.at(us.Seq)
		*u = uop{
			seq: us.Seq, pc: us.PC, in: in, class: in.Op.Class(), state: us.State,
			waitCount: us.WaitCount, waitLink: us.WaitLink, depWaitHead: us.DepWaitHead,
			nsrc: us.NSrc, hasDst: us.HasDst, dstVirt: us.DstVirt,
			srcFile: [2]isa.RegFile{isa.RegFile(us.SrcFile[0] & 1), isa.RegFile(us.SrcFile[1] & 1)},
			srcPhys: us.SrcPhys, dstFile: isa.RegFile(us.DstFile & 1), dstPhys: us.DstPhys, oldPhys: us.OldPhys,
			result: us.Result, addr: us.Addr, oldSpecVal: us.OldSpecVal, depStore: us.DepStore,
			forwarded: us.Forwarded, taken: us.Taken, predTaken: us.PredTaken,
			mispredict: us.Mispredict, snapshot: us.BPSnap,
			completeAt: us.CompleteAt, dispatchAt: us.DispatchAt, issueAt: us.IssueAt, miss: us.Miss,
		}
		if us.HasFill {
			// Re-link to the rebuilt in-flight fill; a fill that had already
			// arrived restores as nil, whose only post-issue use
			// (CancelWaiter on squash) is a no-op either way.
			u.fill = dc.FillAt(us.FillLine)
		}
	}
	for _, seq := range s.Win.ReadySeqs {
		w.setReady(seq)
	}
	m.win = w
	return m, nil
}
