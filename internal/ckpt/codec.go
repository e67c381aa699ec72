package ckpt

import (
	"encoding/binary"
	"fmt"

	"regsim/internal/bpred"
	"regsim/internal/cache"
	"regsim/internal/core"
	"regsim/internal/mem"
	"regsim/internal/rename"
	"regsim/internal/reuse"
	"regsim/internal/sweep/rescache"
)

// The binary entry format (revision FormatVersion):
//
//	"RSCK" | format | version | kind | key | body
//
// The body is the core.Snapshot's fields in declaration order, each
// component (window, rename, predictor, caches, memory) nested the same way.
// Encodings by type:
//
//   - signed integers: zigzag varints; unsigned: uvarints, except memory
//     words, which are fixed 8-byte little-endian;
//   - bool and 8-bit fields: one byte (bools strictly 0 or 1);
//   - strings and predictor tables: uvarint length, then the bytes;
//   - slices: uvarint count, then the elements; fixed arrays: the elements;
//   - core.Result (the snapshot's running statistics): a uvarint length,
//     then its MarshalBinary bytes, the encoding the result cache stores.
//
// Decoding is total. The reader is sticky — after the first defect every
// read returns zero and the error is reported once at the end — and every
// count is checked against the remaining input before anything is
// allocated: each element encodes to at least one byte (eight for memory
// words), so no slice can be sized beyond what the input could fill. Trailing
// bytes are a defect. A decoded envelope then passes the full Validate chain.
const magic = "RSCK"

// wireSnapshot is the snapshot kind byte. Kind byte 2 is retired: it held
// finished results in format-2 stores, and it keeps decoding as an error.
const wireSnapshot = 1

// Encode serializes an envelope (the inverse of Decode).
func Encode(e *Envelope) ([]byte, error) {
	data, err := appendEntry(make([]byte, 0, 64<<10), e) // tens of KiB for a real machine
	if err != nil {
		return nil, err
	}
	return data, nil
}

// appendEntry appends e's encoding to b: Encode into a caller's buffer.
func appendEntry(b []byte, e *Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return b, err
	}
	w := &writer{b: append(b, magic...)}
	w.uint(FormatVersion)
	w.str(e.Version)
	w.str(e.Key)
	w.u8(wireSnapshot)
	w.snapshot(e.Snap)
	return w.b, nil
}

// Decode parses and validates a serialized envelope. It is total: any input
// bytes — truncated, corrupt, or hostile — produce an error, never a panic,
// and a nil error guarantees the envelope passed full structural validation
// (for snapshots, down through every component's Validate). Input that does
// not open with this format's header (an older revision's entry) yields an
// error wrapping rescache.ErrStale. The envelope shares no memory with data.
func Decode(data []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := decodeInto(data, e); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeInto is Decode into e. It overwrites every field of e and reuses
// the snapshot graph e holds, slices included, so decoding entry after
// entry into one scratch envelope stops allocating once the graph has grown
// to its working size. The result equals a fresh Decode's; after an error,
// e holds garbage until the next decode.
func decodeInto(data []byte, e *Envelope) error {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return fmt.Errorf("ckpt: decode: %w: no binary checkpoint header", rescache.ErrStale)
	}
	r := &reader{b: data[len(magic):]}
	if f := r.uint(); r.err == nil && f != FormatVersion {
		return fmt.Errorf("ckpt: decode: %w: format %d, want %d", rescache.ErrStale, f, FormatVersion)
	}
	e.Format, e.Kind = FormatVersion, KindSnapshot
	r.str(&e.Version)
	r.str(&e.Key)
	e.Snap = reuse.OrNew(e.Snap)
	if k := r.u8(); k == wireSnapshot {
		r.snapshot(e.Snap)
	} else {
		r.fail("unknown kind byte %d", k)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return r.err
	}
	return e.Validate()
}

// writer appends the wire encoding to b.
type writer struct{ b []byte }

func (w *writer) uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) int(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *writer) u8(v uint8)    { w.b = append(w.b, v) }
func (w *writer) word(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *writer) bytes(p []byte) {
	w.uint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *writer) int64s(v []int64) {
	w.uint(uint64(len(v)))
	for _, x := range v {
		w.int(x)
	}
}

// result writes r's MarshalBinary bytes with their length in front: it
// appends them, then shifts them right by the length prefix's size.
func (w *writer) result(r *core.Result) {
	start := len(w.b)
	w.b, _ = r.AppendBinary(w.b) // never fails
	n := len(w.b) - start
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	w.b = append(w.b, pre[:k]...)
	copy(w.b[start+k:], w.b[start:start+n])
	copy(w.b[start:], pre[:k])
}

func (w *writer) snapshot(s *core.Snapshot) {
	w.str(s.Version)
	w.str(s.ProgID)
	w.cfg(&s.Cfg)
	w.int(s.Now)
	w.int(s.FetchResumeAt)
	w.bool(s.Done)
	for f := range s.SpecRegs {
		for _, v := range s.SpecRegs[f] {
			w.uint(v)
		}
	}
	w.uint(s.SpecPC)
	w.bool(s.SpecValid)
	for _, q := range s.QCounts {
		w.int(int64(q))
	}
	w.int(int64(s.QTotal))
	w.int64s(s.StoreQ)
	w.int64s(s.BrQ)
	w.int(int64(s.BrIssueIdx))
	w.uint(uint64(len(s.Buckets)))
	for _, b := range s.Buckets {
		w.int(int64(b.Index))
		w.int64s(b.Seqs)
	}
	w.int64s(s.DivBusyUntil)
	w.int64s(s.DivOwner)
	w.int(int64(s.WBCount))
	w.int(s.WBNextDrain)
	w.uint(s.SumState)
	w.int(s.LastCommitSeq)
	w.window(s.Win)
	w.rename(s.Ren)
	w.bpred(s.BP)
	w.dcache(s.DC)
	w.icache(s.IC)
	w.mem(s.Mem)
	w.result(&s.Res)
}

func (w *writer) cfg(c *core.CfgSnap) {
	w.int(int64(c.Width))
	w.int(int64(c.QueueSize))
	w.int(int64(c.RegsPerFile))
	w.u8(uint8(c.Model))
	d := &c.DCache
	w.u8(uint8(d.Kind))
	for _, v := range [...]int{d.SizeBytes, d.Assoc, d.LineBytes, d.HitLatency, d.FetchLatency, d.MSHREntries,
		c.ICacheMissPenalty, c.FrontEndDelay} {
		w.int(int64(v))
	}
	w.bool(c.TrackLiveRegisters)
	w.bool(c.InOrderBranches)
	w.u8(uint8(c.Predictor))
	w.int(int64(c.WriteBufferEntries))
	w.int(int64(c.WriteBufferDrain))
	w.int(int64(c.ReadPortsPerFile))
	w.bool(c.SplitQueues)
	w.int(int64(c.InsertPerCycle))
	w.int(int64(c.CommitPerCycle))
}

func (w *writer) window(win *core.WindowSnap) {
	w.int(int64(win.RingSize))
	w.int(win.HeadSeq)
	w.int(win.NextSeq)
	w.uint(uint64(len(win.Uops)))
	for i := range win.Uops {
		u := &win.Uops[i]
		w.int(u.Seq)
		w.uint(u.PC)
		w.uint(u.Enc)
		w.u8(u.State)
		w.u8(u.WaitCount)
		w.int(u.WaitLink[0])
		w.int(u.WaitLink[1])
		w.int(u.DepWaitHead)
		w.u8(u.NSrc)
		w.bool(u.HasDst)
		w.u8(u.DstVirt)
		w.u8(u.SrcFile[0])
		w.u8(u.SrcFile[1])
		w.int(int64(u.SrcPhys[0]))
		w.int(int64(u.SrcPhys[1]))
		w.u8(u.DstFile)
		w.int(int64(u.DstPhys))
		w.int(int64(u.OldPhys))
		w.uint(u.Result)
		w.uint(u.Addr)
		w.uint(u.OldSpecVal)
		w.int(u.DepStore)
		w.uint(u.FillLine)
		w.bool(u.HasFill)
		w.bool(u.Forwarded)
		w.bool(u.Taken)
		w.bool(u.PredTaken)
		w.bool(u.Mispredict)
		w.uint(uint64(u.BPSnap))
		w.int(u.CompleteAt)
		w.int(u.DispatchAt)
		w.int(u.IssueAt)
		w.bool(u.Miss)
	}
	w.int64s(win.ReadySeqs)
}

func (w *writer) rename(s *rename.Snapshot) {
	w.u8(uint8(s.Model))
	w.int(s.Frontier)
	w.uint(uint64(len(s.Kills)))
	for _, k := range s.Kills {
		w.u8(k.File)
		w.u8(k.Virt)
		w.int(k.Seq)
	}
	w.int(s.KillsMin)
	w.int(s.Frees)
	for f := range s.Files {
		fs := &s.Files[f]
		w.int(int64(fs.N))
		for _, p := range fs.MapTable {
			w.int(int64(p))
		}
		w.uint(uint64(len(fs.FreeList)))
		for _, p := range fs.FreeList {
			w.int(int64(p))
		}
		w.uint(uint64(len(fs.Regs)))
		for _, r := range fs.Regs {
			w.bool(r.Live)
			w.u8(uint8(r.Cat))
			w.bool(r.WriterDone)
			w.int(int64(r.Readers))
			w.bool(r.Killed)
			w.u8(r.Virt)
		}
		for _, chain := range fs.Chains {
			w.uint(uint64(len(chain)))
			for _, c := range chain {
				w.int(c.Seq)
				w.int(int64(c.Phys))
			}
		}
		for _, n := range fs.LiveCat {
			w.int(int64(n))
		}
		w.int(int64(fs.Live))
		w.int64s(fs.WaitHead)
		w.int(int64(fs.MaxPhys))
	}
}

func (w *writer) bpred(s *bpred.Snapshot) {
	w.u8(uint8(s.Kind))
	w.bytes(s.Bimodal)
	w.bytes(s.Global)
	w.bytes(s.Selector)
	w.uint(uint64(s.Hist))
}

func (w *writer) lines(ls []cache.LineSnap) {
	w.uint(uint64(len(ls)))
	for _, l := range ls {
		w.int(int64(l.Index))
		w.uint(l.Tag)
		w.int(l.LastUse)
	}
}

func (w *writer) dcache(s *cache.DSnap) {
	w.lines(s.Lines)
	w.int(s.BusyUntil)
	w.uint(uint64(len(s.Arrivals)))
	for _, f := range s.Arrivals {
		w.uint(f.LineAddr)
		w.int(f.ArriveAt)
		w.int(int64(f.Waiters))
	}
	w.int(s.UseClock)
	st := &s.Stats
	for _, v := range [...]int64{st.LoadAccesses, st.LoadMisses, st.StoreProbes, st.StoreHits,
		st.FillsStarted, st.FillsMerged, st.FillsDropped} {
		w.int(v)
	}
}

func (w *writer) icache(s *cache.ISnap) {
	w.lines(s.Lines)
	w.int(s.UseClock)
	w.uint(s.LastLA)
	w.bool(s.LastOK)
	w.int(s.Accesses)
	w.int(s.Misses)
}

func (w *writer) mem(s *mem.Snap) {
	w.uint(uint64(len(s.Pages)))
	for _, p := range s.Pages {
		w.uint(p.Page)
		w.uint(uint64(len(p.Words)))
		for _, v := range p.Words {
			w.word(v)
		}
	}
}

// reader decodes the wire encoding from b with a sticky error: after the
// first defect b is emptied, every read returns zero, and err holds the
// first defect.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: decode: "+format, args...)
	}
	r.b = nil
}

func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad or truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// intN reads a varint into an int, refusing values the platform's int
// cannot hold.
func (r *reader) intN() int {
	v := r.int()
	if int64(int(v)) != v {
		r.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

func (r *reader) i32() int32 {
	v := r.int()
	if int64(int32(v)) != v {
		r.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (r *reader) phys() rename.Phys { return rename.Phys(r.i32()) }

func (r *reader) u8() uint8 {
	if len(r.b) == 0 {
		r.fail("truncated input")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail("bool byte %d", v)
	}
	return v == 1
}

func (r *reader) word() uint64 {
	if len(r.b) < 8 {
		r.fail("truncated input")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads a length prefix for elements that each encode to at least
// size bytes, refusing — before the caller allocates — any count the
// remaining input cannot hold.
func (r *reader) count(size int) int {
	n := r.uint()
	if n > uint64(len(r.b)/size) {
		r.fail("length prefix %d exceeds the remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// bytes reads a byte string into dst's array when it is large enough.
func (r *reader) bytes(dst []byte) []byte {
	n := r.count(1)
	p := reuse.Copy(dst, r.b[:n])
	r.b = r.b[n:]
	return p
}

// str reads a string into *dst, keeping *dst when it already holds it, so
// that decoding the same key again allocates nothing.
func (r *reader) str(dst *string) {
	n := r.count(1)
	if p := r.b[:n]; string(p) != *dst {
		*dst = string(p)
	}
	r.b = r.b[n:]
}

func (r *reader) int64s(dst []int64) []int64 {
	v := reuse.Slice(dst, r.count(1))
	for i := range v {
		v[i] = r.int()
	}
	return v
}

func (r *reader) result(res *core.Result) {
	n := r.count(1)
	if r.err != nil {
		return
	}
	if err := res.UnmarshalBinaryReusing(r.b[:n]); err != nil {
		r.fail("result: %v", err)
		return
	}
	r.b = r.b[n:]
}

func (r *reader) snapshot(s *core.Snapshot) {
	r.str(&s.Version)
	r.str(&s.ProgID)
	r.cfg(&s.Cfg)
	s.Now = r.int()
	s.FetchResumeAt = r.int()
	s.Done = r.bool()
	for f := range s.SpecRegs {
		for i := range s.SpecRegs[f] {
			s.SpecRegs[f][i] = r.uint()
		}
	}
	s.SpecPC = r.uint()
	s.SpecValid = r.bool()
	for i := range s.QCounts {
		s.QCounts[i] = r.intN()
	}
	s.QTotal = r.intN()
	s.StoreQ = r.int64s(s.StoreQ)
	s.BrQ = r.int64s(s.BrQ)
	s.BrIssueIdx = r.intN()
	s.Buckets = reuse.Slice(s.Buckets, r.count(1))
	for i := range s.Buckets {
		b := &s.Buckets[i]
		b.Index = r.intN()
		b.Seqs = r.int64s(b.Seqs)
	}
	s.DivBusyUntil = r.int64s(s.DivBusyUntil)
	s.DivOwner = r.int64s(s.DivOwner)
	s.WBCount = r.intN()
	s.WBNextDrain = r.int()
	s.SumState = r.uint()
	s.LastCommitSeq = r.int()
	s.Win = reuse.OrNew(s.Win)
	r.window(s.Win)
	s.Ren = reuse.OrNew(s.Ren)
	r.rename(s.Ren)
	s.BP = reuse.OrNew(s.BP)
	r.bpred(s.BP)
	s.DC = reuse.OrNew(s.DC)
	r.dcache(s.DC)
	s.IC = reuse.OrNew(s.IC)
	r.icache(s.IC)
	s.Mem = reuse.OrNew(s.Mem)
	r.mem(s.Mem)
	r.result(&s.Res)
}

func (r *reader) cfg(c *core.CfgSnap) {
	c.Width = r.intN()
	c.QueueSize = r.intN()
	c.RegsPerFile = r.intN()
	c.Model = rename.Model(r.u8())
	d := &c.DCache
	d.Kind = cache.Kind(r.u8())
	for _, p := range [...]*int{&d.SizeBytes, &d.Assoc, &d.LineBytes, &d.HitLatency, &d.FetchLatency, &d.MSHREntries,
		&c.ICacheMissPenalty, &c.FrontEndDelay} {
		*p = r.intN()
	}
	c.TrackLiveRegisters = r.bool()
	c.InOrderBranches = r.bool()
	c.Predictor = bpred.Kind(r.u8())
	c.WriteBufferEntries = r.intN()
	c.WriteBufferDrain = r.intN()
	c.ReadPortsPerFile = r.intN()
	c.SplitQueues = r.bool()
	c.InsertPerCycle = r.intN()
	c.CommitPerCycle = r.intN()
}

func (r *reader) window(win *core.WindowSnap) {
	win.RingSize = r.intN()
	win.HeadSeq = r.int()
	win.NextSeq = r.int()
	win.Uops = reuse.Slice(win.Uops, r.count(1))
	for i := range win.Uops {
		u := &win.Uops[i]
		u.Seq = r.int()
		u.PC = r.uint()
		u.Enc = r.uint()
		u.State = r.u8()
		u.WaitCount = r.u8()
		u.WaitLink = [2]int64{r.int(), r.int()}
		u.DepWaitHead = r.int()
		u.NSrc = r.u8()
		u.HasDst = r.bool()
		u.DstVirt = r.u8()
		u.SrcFile = [2]uint8{r.u8(), r.u8()}
		u.SrcPhys = [2]rename.Phys{r.phys(), r.phys()}
		u.DstFile = r.u8()
		u.DstPhys = r.phys()
		u.OldPhys = r.phys()
		u.Result = r.uint()
		u.Addr = r.uint()
		u.OldSpecVal = r.uint()
		u.DepStore = r.int()
		u.FillLine = r.uint()
		u.HasFill = r.bool()
		u.Forwarded = r.bool()
		u.Taken = r.bool()
		u.PredTaken = r.bool()
		u.Mispredict = r.bool()
		u.BPSnap = r.history()
		u.CompleteAt = r.int()
		u.DispatchAt = r.int()
		u.IssueAt = r.int()
		u.Miss = r.bool()
	}
	win.ReadySeqs = r.int64s(win.ReadySeqs)
}

func (r *reader) history() bpred.History {
	v := r.uint()
	if uint64(bpred.History(v)) != v {
		r.fail("branch history %d overflows 16 bits", v)
		return 0
	}
	return bpred.History(v)
}

func (r *reader) rename(s *rename.Snapshot) {
	s.Model = rename.Model(r.u8())
	s.Frontier = r.int()
	s.Kills = reuse.Slice(s.Kills, r.count(1))
	for i := range s.Kills {
		s.Kills[i] = rename.KillSnap{File: r.u8(), Virt: r.u8(), Seq: r.int()}
	}
	s.KillsMin = r.int()
	s.Frees = r.int()
	for f := range s.Files {
		fs := &s.Files[f]
		fs.N = r.intN()
		for v := range fs.MapTable {
			fs.MapTable[v] = r.phys()
		}
		fs.FreeList = reuse.Slice(fs.FreeList, r.count(1))
		for i := range fs.FreeList {
			fs.FreeList[i] = r.phys()
		}
		fs.Regs = reuse.Slice(fs.Regs, r.count(1))
		for i := range fs.Regs {
			reg := &fs.Regs[i]
			reg.Live = r.bool()
			reg.Cat = rename.Category(r.u8())
			reg.WriterDone = r.bool()
			reg.Readers = r.i32()
			reg.Killed = r.bool()
			reg.Virt = r.u8()
		}
		for v := range fs.Chains {
			chain := reuse.Slice(fs.Chains[v], r.count(1))
			for i := range chain {
				chain[i] = rename.ChainSnap{Seq: r.int(), Phys: r.phys()}
			}
			fs.Chains[v] = chain
		}
		for c := range fs.LiveCat {
			fs.LiveCat[c] = r.intN()
		}
		fs.Live = r.intN()
		fs.WaitHead = r.int64s(fs.WaitHead)
		fs.MaxPhys = r.phys()
	}
}

func (r *reader) bpred(s *bpred.Snapshot) {
	s.Kind = bpred.Kind(r.u8())
	s.Bimodal = r.bytes(s.Bimodal)
	s.Global = r.bytes(s.Global)
	s.Selector = r.bytes(s.Selector)
	s.Hist = r.history()
}

func (r *reader) lines(ls []cache.LineSnap) []cache.LineSnap {
	ls = reuse.Slice(ls, r.count(1))
	for i := range ls {
		ls[i] = cache.LineSnap{Index: r.intN(), Tag: r.uint(), LastUse: r.int()}
	}
	return ls
}

func (r *reader) dcache(s *cache.DSnap) {
	s.Lines = r.lines(s.Lines)
	s.BusyUntil = r.int()
	s.Arrivals = reuse.Slice(s.Arrivals, r.count(1))
	for i := range s.Arrivals {
		s.Arrivals[i] = cache.FillSnap{LineAddr: r.uint(), ArriveAt: r.int(), Waiters: r.intN()}
	}
	s.UseClock = r.int()
	st := &s.Stats
	for _, p := range [...]*int64{&st.LoadAccesses, &st.LoadMisses, &st.StoreProbes, &st.StoreHits,
		&st.FillsStarted, &st.FillsMerged, &st.FillsDropped} {
		*p = r.int()
	}
}

func (r *reader) icache(s *cache.ISnap) {
	s.Lines = r.lines(s.Lines)
	s.UseClock = r.int()
	s.LastLA = r.uint()
	s.LastOK = r.bool()
	s.Accesses = r.int()
	s.Misses = r.int()
}

func (r *reader) mem(s *mem.Snap) {
	s.Pages = reuse.Slice(s.Pages, r.count(1))
	for i := range s.Pages {
		p := &s.Pages[i]
		p.Page = r.uint()
		p.Words = reuse.Slice(p.Words, r.count(8))
		for j := range p.Words {
			p.Words[j] = r.word()
		}
	}
}
