package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"regsim/internal/cache"
	"regsim/internal/rename"
)

// Version identifies the simulator's behavioural revision. It is folded
// into persistent result-cache fingerprints, so it MUST be bumped by any
// change that can alter a simulation's Result for the same configuration
// (pipeline rules, latencies, predictor details, statistics definitions).
const Version = "core-1"

// Result holds the statistics of one simulation run. Every field is
// exported and JSON-encodable: JSON is the wire format (HTTP responses,
// paper -json). On disk, in the result cache and in checkpoints, a Result
// is stored in its binary encoding (MarshalBinary), so a field added here
// must also be added to binaryFields (see TestResultCodecCarriesEveryField).
type Result struct {
	// Cycles is the simulated run time.
	Cycles int64
	// Committed is the number of committed (architecturally retired)
	// instructions — the paper's "commit" count.
	Committed int64
	// Issued is the number of executed instructions, including
	// speculatively executed ones that were later squashed — the paper's
	// "executed" count.
	Issued int64

	// Class breakdowns of executed instructions.
	IssuedLoads  int64
	IssuedStores int64
	IssuedCondBr int64

	// Class breakdowns of committed instructions.
	CommittedLoads  int64
	CommittedCondBr int64

	// LoadMisses is the number of executed loads that missed in the data
	// cache (store-queue-forwarded loads never probe the cache).
	LoadMisses int64
	// ForwardedLoads received their value from an earlier uncommitted store.
	ForwardedLoads int64
	// Mispredicts is the number of executed conditional branches whose
	// predicted direction was wrong.
	Mispredicts int64

	// NoFreeRegCycles counts cycles during which the integer or the
	// floating-point free list was empty (Figure 6's register-pressure
	// metric: "the percentage of the run time for which there were no
	// free registers").
	NoFreeRegCycles int64
	// DispatchRegStalls counts cycles in which instruction insertion
	// actually stopped early for lack of a free register.
	DispatchRegStalls int64
	// DispatchQueueFullStalls counts cycles in which insertion stopped
	// because the dispatch queue was full.
	DispatchQueueFullStalls int64
	// WriteBufferStalls counts cycles in which commit stopped at a store
	// because a finite write buffer was full (always zero under the
	// paper's no-bandwidth assumption).
	WriteBufferStalls int64

	// Halted reports whether the program ran to its halt instruction
	// (rather than exhausting the commit budget).
	Halted bool
	// Checksum is the commit-stream checksum (see internal/ref).
	Checksum uint64

	// Live register histograms, only populated when
	// Config.TrackLiveRegisters is set. See LiveHist.
	Live [2]LiveHist // indexed by isa.RegFile

	// Ports holds per-cycle register-file port-usage histograms, populated
	// when Config.TrackLiveRegisters is set. The paper provisions 2×width
	// read and width write ports for the integer file (half each for FP)
	// "to prevent any write-port conflicts arising when registers are
	// filled on the resolution of a cache miss"; these distributions show
	// what the machine actually uses.
	Ports [2]PortHist // indexed by isa.RegFile

	// DCache is the data-cache activity counters.
	DCache cache.Stats
	// ICacheAccesses/ICacheMisses count instruction-cache activity.
	ICacheAccesses int64
	ICacheMisses   int64
}

// LiveHist records, for one register file, per-cycle histograms of the
// cumulative live-register category sums used by Figure 3's stacked regions:
//
//	Cum[0][n] — cycles with exactly n registers assigned to instructions
//	            still in the dispatch queue.
//	Cum[1][n] — ... n registers in the queue or in flight.
//	Cum[2][n] — ... plus registers waiting for the imprecise freeing
//	            conditions: the register count a machine with imprecise
//	            exceptions needs live.
//	Cum[3][n] — ... plus registers waiting only for the precise conditions:
//	            the total live count under precise exceptions.
//
// Counts include the hardwired zero register (in the wait-imprecise bucket
// and above), matching the paper's "at least 32 live registers" floor.
type LiveHist struct {
	Cum [rename.NumCategories][]int64
}

func newLiveHist(regsPerFile int) LiveHist {
	var h LiveHist
	for i := range h.Cum {
		h.Cum[i] = make([]int64, regsPerFile+2)
	}
	return h
}

func (h *LiveHist) record(counts [rename.NumCategories]int) {
	// The hardwired zero register is permanently live and can never be
	// freed under either model; count it with the wait-imprecise group.
	counts[rename.CatWaitImprecise]++
	sum := 0
	for c := 0; c < int(rename.NumCategories); c++ {
		sum += counts[c]
		h.Cum[c][sum]++
	}
}

// TotalLive returns the histogram of total live registers (the precise-model
// requirement; equal to Cum[3]).
func (h *LiveHist) TotalLive() []int64 { return h.Cum[rename.CatWaitPrecise] }

// CommitIPC returns committed instructions per cycle.
func (r *Result) CommitIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// IssueIPC returns executed instructions per cycle.
func (r *Result) IssueIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Issued) / float64(r.Cycles)
}

// LoadMissRate returns data-cache misses per executed load.
func (r *Result) LoadMissRate() float64 {
	if r.IssuedLoads == 0 {
		return 0
	}
	return float64(r.LoadMisses) / float64(r.IssuedLoads)
}

// MispredictRate returns mispredictions per executed conditional branch.
func (r *Result) MispredictRate() float64 {
	if r.IssuedCondBr == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.IssuedCondBr)
}

// NoFreeRegFraction returns the fraction of run time with an empty free list
// in either file.
func (r *Result) NoFreeRegFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.NoFreeRegCycles) / float64(r.Cycles)
}

// PortHist records, for one register file, histograms of ports used per
// cycle: Reads[n] counts cycles with exactly n operand reads at issue
// (hardwired-zero reads use no port), Writes[n] counts cycles with n result
// writes at completion (including cache-fill register writes).
type PortHist struct {
	Reads  []int64
	Writes []int64
}

func newPortHist() PortHist {
	return PortHist{Reads: make([]int64, portHistMax+1), Writes: make([]int64, portHistMax+1)}
}

// portHistMax caps the histograms: a cycle using more than 63 ports is
// counted in the last bucket rather than growing (or overrunning) the
// histogram. Reads per cycle are bounded by issue width × 2 operands, but
// completions are not bounded by issue width — a burst of cache fills
// arriving together can write arbitrarily many registers in one cycle — so
// the last bucket means "portHistMax or more". PortHist.Saturated reports
// whether that ever happened, and consumers (the metrics JSON dump) must
// treat the final bucket as open-ended.
const portHistMax = 63

// Saturated reports whether any cycle's port usage landed in the open-ended
// final bucket (portHistMax or more reads or writes), i.e. whether the
// histogram's tail under-reports true peak demand.
func (h *PortHist) Saturated() bool {
	if len(h.Reads) == 0 || len(h.Writes) == 0 {
		return false
	}
	return h.Reads[len(h.Reads)-1] > 0 || h.Writes[len(h.Writes)-1] > 0
}

func (h *PortHist) record(reads, writes int) {
	if reads > portHistMax {
		reads = portHistMax
	}
	if writes > portHistMax {
		writes = portHistMax
	}
	h.Reads[reads]++
	h.Writes[writes]++
}

// MarshalBinary encodes r in the binary form both disk tiers store. It
// never fails. The encoding carries r's fields in declaration order:
//
//   - the int64 counters as zigzag varints;
//   - Halted as one byte, 0 or 1, and Checksum as a uvarint;
//   - each histogram slice as a uvarint tag, 0 for nil or else 1 + its
//     length, followed by its counts as zigzag varints.
//
// Nil and empty slices stay distinct, so a decoded Result marshals to the
// same JSON as the one encoded. Varints must be minimal, so every Result
// has one encoding and any input the decoder accepts re-encodes to itself.
func (r *Result) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, 128))
}

// AppendBinary appends r's binary encoding (see MarshalBinary) to b. It
// never fails.
func (r *Result) AppendBinary(b []byte) ([]byte, error) {
	head, hists, tail := r.binaryFields()
	for _, p := range head {
		b = binary.AppendVarint(b, *p)
	}
	if r.Halted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, r.Checksum)
	for _, p := range hists {
		if *p == nil {
			b = append(b, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(*p))+1)
		for _, v := range *p {
			b = binary.AppendVarint(b, v)
		}
	}
	for _, p := range tail {
		b = binary.AppendVarint(b, *p)
	}
	return b, nil
}

// UnmarshalBinary replaces r with the Result data encodes (the inverse of
// MarshalBinary). It is total: any input either decodes or returns an error
// and leaves r zero. A slice is allocated only after its length is checked
// against the remaining input (every count takes at least one byte), and
// trailing bytes are an error. r keeps no reference to data.
func (r *Result) UnmarshalBinary(data []byte) error {
	*r = Result{}
	return r.UnmarshalBinaryReusing(data)
}

// UnmarshalBinaryReusing is UnmarshalBinary, except that it decodes each
// histogram into the slice r already holds there when that slice is large
// enough, overwriting it. A decoder that fills one scratch Result entry
// after entry uses it; anyone still holding r's slices must not.
func (r *Result) UnmarshalBinaryReusing(data []byte) error {
	d := resultDecoder{b: data}
	head, hists, tail := r.binaryFields()
	for _, p := range head {
		*p = d.varint()
	}
	r.Halted = d.bool()
	r.Checksum = d.uvarint()
	for _, p := range hists {
		*p = d.int64s(*p)
	}
	for _, p := range tail {
		*p = d.varint()
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		*r = Result{}
		return fmt.Errorf("core: decode result: %w", d.err)
	}
	return nil
}

// binaryFields lists r's fields in the binary encoding's order: the
// counters before Halted, then (after Halted and Checksum) the histogram
// slices, then the cache counters.
func (r *Result) binaryFields() (head [15]*int64, hists [12]*[]int64, tail [9]*int64) {
	head = [...]*int64{&r.Cycles, &r.Committed, &r.Issued,
		&r.IssuedLoads, &r.IssuedStores, &r.IssuedCondBr, &r.CommittedLoads, &r.CommittedCondBr,
		&r.LoadMisses, &r.ForwardedLoads, &r.Mispredicts,
		&r.NoFreeRegCycles, &r.DispatchRegStalls, &r.DispatchQueueFullStalls, &r.WriteBufferStalls}
	i := 0
	for f := range r.Live {
		for c := range r.Live[f].Cum {
			hists[i] = &r.Live[f].Cum[c]
			i++
		}
	}
	for f := range r.Ports {
		hists[i], hists[i+1] = &r.Ports[f].Reads, &r.Ports[f].Writes
		i += 2
	}
	dc := &r.DCache
	tail = [...]*int64{&dc.LoadAccesses, &dc.LoadMisses, &dc.StoreProbes, &dc.StoreHits,
		&dc.FillsStarted, &dc.FillsMerged, &dc.FillsDropped, &r.ICacheAccesses, &r.ICacheMisses}
	return head, hists, tail
}

// resultDecoder reads the binary encoding from b with a sticky error: after
// the first defect b is emptied, every read returns zero, and err holds the
// defect.
type resultDecoder struct {
	b   []byte
	err error
}

func (d *resultDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *resultDecoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail(errors.New("truncated input or a bool byte other than 0 or 1"))
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// ends in a zero byte.
func (d *resultDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail(errors.New("bad, truncated or non-minimal varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a minimal zigzag varint.
func (d *resultDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int64s reads a histogram slice into dst's array when it is large enough.
// The slice is nil only when encoded nil: an empty one stays non-nil.
func (d *resultDecoder) int64s(dst []int64) []int64 {
	tag := d.uvarint()
	if tag == 0 {
		return nil
	}
	if tag-1 > uint64(len(d.b)) {
		d.fail(fmt.Errorf("slice length %d exceeds the remaining %d bytes", tag-1, len(d.b)))
		return nil
	}
	n := int(tag - 1)
	v := dst
	if v == nil || cap(v) < n {
		v = make([]int64, n)
	}
	v = v[:n]
	for i := range v {
		v[i] = d.varint()
	}
	return v
}
