// Package twin is the analytical fast path beside the cycle-accurate
// simulator: a closed-form model that predicts commit IPC, run cycles, and
// BIPS for an exper.Spec in well under a microsecond instead of the
// milliseconds-to-minutes of the cycle loop.
//
// The model is anchored, not derived: for each (benchmark, width) pair it
// runs a small fixed set of calibration simulations once, and every estimate
// is then interpolation between those anchors along the paper's axes:
//
//   - queue axis (Fig. 3): IPC measured at every paper queue size
//     {8, 16, 32, 64, 128, 256} with plentiful (2048) registers; in between,
//     a piecewise power law in log-log space — exact at the anchors, monotone
//     non-decreasing after an isotonic clamp, flat above 256 (past the
//     ILP-saturating window, more queue buys nothing);
//   - register axis (Fig. 6): register efficiency e(R) = IPC(R)/IPC(2048)
//     measured at R ∈ {32, 48, 64, 80, 96, 128, 160} at the width's
//     cost-effective queue, once per exception model; in between, a piecewise
//     power law in (R − 31) — the file size minus the architectural floor —
//     monotone and clamped to ≤ 1, saturating no later than the measurement
//     size. The imprecise curve is floored at the precise one pointwise (its
//     freeing conditions are strictly weaker), so imprecise ≥ precise holds
//     by construction;
//   - cache axis (Fig. 7): additive CPI deltas measured against the perfect
//     and blocking caches at the cost-effective queue, clamped to
//     Δperfect ≤ 0 ≤ Δlockup so the paper's cache ordering also holds by
//     construction;
//   - width/dataflow bound: every term is ≤ the measured ILP ceiling, and
//     the final CPI is floored at 1/width — the dataflow lower bound no
//     machine beats, however optimistic the perfect-cache delta.
//
// Calibration runs execute through the same exper.Suite as everything else,
// so they are kept in its result table, coalesce across concurrent callers, and
// persist in the shared result cache: a cold Estimate costs
// CalibrationRunsPerPair small simulations per (bench, width), a warm one is
// pure arithmetic.
//
// The model's honesty is enforced by internal/verify's TwinBounds suite:
// per-figure error ceilings against the simulator, committed as golden
// tolerances, plus metamorphic direction agreement.
package twin

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/rftiming"
)

// Calibration anchor points: Figure 3's whole queue axis, and the knee-heavy
// span of Figure 6's register axis. The 96 and 128 anchors earn their runs:
// the BIPS peaks of Figure 10 land there, and anchoring them keeps an
// estimate exact at the peaks.
var queueAnchors = []int{8, 16, 32, 64, 128, 256}

var regAnchors = []int{32, 48, 64, 80, 96, 128, 160}

// scaleAnchor is the starved file size of the perfect-cache interaction
// run — small enough that register pressure decisively binds, large enough
// that the machine still moves.
const scaleAnchor = 48

// calQueue is the large-queue anchor at which the dataflow ceiling is
// measured; above it the queue curve is flat.
const calQueue = 256

// floorR is the register-axis offset of the efficiency power law: the 31
// renameable architectural registers that are live no matter what (the
// hardwired zero never occupies a freeable physical register).
const floorR = 31.0

// DefaultCalibBudget is the per-run commit budget of calibration simulations
// when the suite has no budget of its own.
const DefaultCalibBudget = 50_000

// Model is the analytical twin. Construct with New; safe for concurrent use.
type Model struct {
	suite *exper.Suite

	mu    sync.Mutex
	cells map[calibKey]*calibCell
	runs  int64 // calibration simulations requested (memo hits included)
}

// New returns a Model calibrating through the given suite — and therefore
// through its result table, worker pool, and persistent result cache.
func New(s *exper.Suite) *Model {
	return &Model{suite: s, cells: make(map[calibKey]*calibCell)}
}

type calibKey struct {
	bench string
	width int
}

// calibCell memoizes one (bench, width) calibration; the once coalesces
// concurrent first callers so the suite sees one batch.
type calibCell struct {
	once  sync.Once
	stats *WorkloadStats
	err   error
	// done flips to true only after a successful calibration; Warm reads it
	// without entering the once, so it must be atomic.
	done atomic.Bool
}

// WorkloadStats is one (benchmark, width) calibration: the per-workload
// statistics every estimate for that pair interpolates between.
type WorkloadStats struct {
	Bench  string `json:"bench"`
	Width  int    `json:"width"`
	Budget int64  `json:"budget"`

	// BaseIPC is the dataflow/width ILP ceiling: commit IPC with a
	// 256-entry queue, 2048 registers per file, and the baseline
	// lockup-free cache. It folds in the workload's instruction mix,
	// dependence distances, branch mispredictions, and baseline cache
	// behaviour.
	BaseIPC float64 `json:"baseIPC"`
	// QueueIPC[i] is the IPC at queue size queueAnchors[i] (plentiful
	// registers), isotonically clamped so the interpolated curve is
	// monotone.
	QueueIPC []float64 `json:"queueIPC"`
	// QceIPC is the IPC at the width's cost-effective queue — the
	// normalizer of the register-efficiency anchors.
	QceIPC float64 `json:"qceIPC"`
	// RegEff[m][i] is IPC(regAnchors[i]) / QceIPC at the cost-effective
	// queue under exception model m (0 precise, 1 imprecise), clamped
	// isotone in the file size, ≤ 1, and imprecise ≥ precise pointwise.
	RegEff [2][]float64 `json:"regEff"`
	// LiveMean[f][m] is the measurement run's mean live-register count in
	// file f under model m's freeing conditions — Figure 3's stacked
	// regions, recorded for inspection.
	LiveMean [2][2]float64 `json:"liveMean"`
	// DeltaCPIPerfect/DeltaCPILockup are the CPI shifts of swapping the
	// baseline lockup-free cache for the perfect (≤ 0) or blocking (≥ 0)
	// organisation, measured at the cost-effective queue.
	DeltaCPIPerfect float64 `json:"deltaCPIPerfect"`
	DeltaCPILockup  float64 `json:"deltaCPILockup"`
	// ScalePerfect (≥ 1) is the perfect cache's measured relief of
	// register pressure: the factor by which the register cap rises when
	// miss latency stops extending register residencies, solved from a
	// dedicated calibration run at a starved file size.
	ScalePerfect float64 `json:"scalePerfect"`

	// Instruction mix and miss profiles, recorded for inspection (the
	// anchors above already fold them in via the measured IPCs).
	LoadFrac float64 `json:"loadFrac"`
	CbrFrac  float64 `json:"cbrFrac"`
	MissRate float64 `json:"missRate"`
	MispRate float64 `json:"mispRate"`
}

// Bounds is the per-term breakdown of one estimate: which constraint the
// final IPC came from.
type Bounds struct {
	// WidthIPC is the dataflow/width ceiling (BaseIPC).
	WidthIPC float64 `json:"widthIPC"`
	// QueueIPC is the queue-axis interpolation at the spec's queue size.
	QueueIPC float64 `json:"queueIPC"`
	// RegsIPC is the register-limited IPC at the spec's file size
	// (QceIPC × the efficiency curve).
	RegsIPC float64 `json:"regsIPC"`
	// RegEff is the register-efficiency factor in (0, 1].
	RegEff float64 `json:"regEff"`
	// CacheDeltaCPI is the additive CPI term of the spec's cache kind.
	CacheDeltaCPI float64 `json:"cacheDeltaCPI"`
}

// Estimate is one closed-form prediction.
type Estimate struct {
	// IPC is the predicted commit IPC; always in (0, width].
	IPC float64 `json:"ipc"`
	// CPI is 1/IPC (the form the cache terms compose in).
	CPI float64 `json:"cpi"`
	// Cycles is the predicted run time for the spec's commit budget;
	// always ≥ ceil(budget/width), the dataflow lower bound.
	Cycles int64 `json:"cycles"`
	// IntCycleNS is the integer register file's cycle time at the spec's
	// size and width (the paper's machine-cycle proxy).
	IntCycleNS float64 `json:"intCycleNS"`
	// BIPS is IPC divided by IntCycleNS — Figure 10's metric.
	BIPS float64 `json:"bips"`
	// Bounds is the term breakdown.
	Bounds Bounds `json:"bounds"`
}

// Estimate predicts one spec. The first call for a (bench, width) pair runs
// the calibration batch through the suite; every later call is closed-form
// arithmetic.
func (m *Model) Estimate(spec exper.Spec) (Estimate, error) {
	return m.EstimateContext(context.Background(), spec)
}

// EstimateContext is Estimate under a caller context: a deadline or
// cancellation aborts an in-flight calibration (the closed-form part is too
// fast to bother interrupting).
func (m *Model) EstimateContext(ctx context.Context, spec exper.Spec) (Estimate, error) {
	if spec.Queue < 1 {
		return Estimate{}, fmt.Errorf("twin: queue size %d out of range", spec.Queue)
	}
	if spec.Regs < rename.MinRegsPerFile {
		return Estimate{}, fmt.Errorf("twin: %d registers per file is below the architectural floor %d", spec.Regs, rename.MinRegsPerFile)
	}
	st, err := m.Stats(ctx, spec.Bench, spec.Width)
	if err != nil {
		return Estimate{}, err
	}

	queueIPC := st.queueInterp(float64(spec.Queue))
	eff := st.regEfficiency(spec.Regs, spec.Model)

	// Effective-window composition: the queue and the register file
	// throttle the same in-flight window, so the machine runs at the
	// smaller of the two throughput caps — not their product, which would
	// double-count the shared constraint (a small queue already keeps few
	// registers live). Exact on both calibration axes: at plentiful
	// registers eff = 1 and the queue curve stands alone; at a register
	// anchor with the cost-effective queue the min picks the measured
	// register-limited IPC itself.
	//
	// The cache kinds compose asymmetrically, each exact at its own
	// calibration point and ordered lockup ≤ lockup-free ≤ perfect by
	// construction:
	//
	//   - perfect removes miss latency from part of every register's
	//     residency, so the register cap scales up by the per-workload
	//     ScalePerfect factor (Little's law: same registers, shorter
	//     holding times, more throughput), and the negative CPI delta
	//     then credits the miss cycles themselves;
	//   - the blocking cache is a third throughput cap in the min, not a
	//     CPI surcharge: a machine already throttled by its queue or its
	//     register file hides blocking-miss latency behind those stalls,
	//     so the penalties overlap instead of compounding.
	coreIPC := queueIPC
	regsScale := 1.0
	var deltaCPI float64
	if spec.Cache == cache.Perfect {
		regsScale = st.ScalePerfect
		deltaCPI = st.DeltaCPIPerfect
	}
	if eff < 1 {
		if regsIPC := st.QceIPC * eff * regsScale; regsIPC < coreIPC {
			coreIPC = regsIPC
		}
	}
	if spec.Cache == cache.Lockup {
		if capL := 1 / (1/st.QceIPC + st.DeltaCPILockup); capL < coreIPC {
			coreIPC = capL
		}
	}

	cpi := 1/coreIPC + deltaCPI
	// The dataflow lower bound: no machine commits more than width per
	// cycle, however optimistic the perfect-cache delta.
	if floorCPI := 1 / float64(spec.Width); cpi < floorCPI {
		cpi = floorCPI
	}
	ipc := 1 / cpi

	budget := spec.Budget
	if budget == 0 {
		budget = m.calibBudget()
	}
	cycles := int64(math.Ceil(float64(budget) * cpi))
	if cycles < 1 {
		cycles = 1
	}

	cycleNS := rftiming.Default05um().CycleTime(spec.Regs, rftiming.PortsFor(spec.Width, false))
	return Estimate{
		IPC:        ipc,
		CPI:        cpi,
		Cycles:     cycles,
		IntCycleNS: cycleNS,
		BIPS:       rftiming.BIPS(ipc, cycleNS),
		Bounds: Bounds{
			WidthIPC:      st.BaseIPC,
			QueueIPC:      queueIPC,
			RegsIPC:       st.QceIPC * eff,
			RegEff:        eff,
			CacheDeltaCPI: deltaCPI,
		},
	}, nil
}

// queueInterp evaluates the queue-axis curve: piecewise power law through
// the anchors, extrapolating the first segment's exponent below the smallest
// anchor and flat above the largest.
func (st *WorkloadStats) queueInterp(q float64) float64 {
	n := len(queueAnchors)
	if q >= float64(queueAnchors[n-1]) {
		return st.QueueIPC[n-1]
	}
	// Find the surrounding segment; below the first anchor, extrapolate
	// its segment's law downwards (q ≥ 1 keeps the power positive).
	i := 0
	for i < n-2 && q > float64(queueAnchors[i+1]) {
		i++
	}
	lo, hi := float64(queueAnchors[i]), float64(queueAnchors[i+1])
	ipcLo, ipcHi := st.QueueIPC[i], st.QueueIPC[i+1]
	if ipcLo <= 0 || ipcHi <= ipcLo {
		// Degenerate or flat segment: the isotonic clamp guarantees
		// ipcHi ≥ ipcLo, so flat is the only non-exponent case.
		return ipcLo
	}
	b := math.Log(ipcHi/ipcLo) / math.Log(hi/lo)
	if q < 0.5 {
		q = 0.5
	}
	return ipcLo * math.Pow(q/lo, b)
}

// regEfficiency evaluates the register-efficiency curve of the spec's
// exception model at a file size. The imprecise result is additionally
// floored at the precise one: the anchors are clamped pointwise, and taking
// the max keeps the ordering airtight where the interpolated tails could
// otherwise cross.
func (st *WorkloadStats) regEfficiency(regs int, model rename.Model) float64 {
	e := st.regCurve(0, regs)
	if model == rename.Imprecise {
		e = math.Max(e, st.regCurve(1, regs))
	}
	return e
}

// regCurve evaluates one model's register-efficiency anchors at a file size:
// piecewise power law in (R − floorR), exact at the anchors.
func (st *WorkloadStats) regCurve(m, regs int) float64 {
	eff := st.RegEff[m]
	r := float64(regs)
	x := r - floorR
	if x < 0.5 {
		x = 0.5
	}
	n := len(regAnchors)
	segExp := func(i int) float64 {
		loE, hiE := eff[i], eff[i+1]
		if loE <= 0 || hiE <= loE {
			return 0
		}
		lo, hi := float64(regAnchors[i])-floorR, float64(regAnchors[i+1])-floorR
		return math.Log(hiE/loE) / math.Log(hi/lo)
	}
	switch {
	case r <= float64(regAnchors[0]):
		// Below the smallest anchor: extrapolate the first segment's law.
		e := eff[0] * math.Pow(x/(float64(regAnchors[0])-floorR), segExp(0))
		return math.Max(e, 1e-4)
	case r >= float64(regAnchors[n-1]):
		// Above the largest anchor: continue the last segment's law, but
		// saturate no later than the measurement size — the calibration
		// run at MeasureRegs is by definition pressure-free, so a linear
		// blend to 1 there floors a degenerate (flat) tail.
		x0 := float64(regAnchors[n-1]) - floorR
		e := eff[n-1] * math.Pow(x/x0, segExp(n-2))
		xTop := float64(exper.MeasureRegs) - floorR
		if lin := eff[n-1] + (1-eff[n-1])*(x-x0)/(xTop-x0); lin > e {
			e = lin
		}
		return math.Min(e, 1)
	default:
		i := 0
		for i < n-2 && r > float64(regAnchors[i+1]) {
			i++
		}
		e := eff[i] * math.Pow(x/(float64(regAnchors[i])-floorR), segExp(i))
		return math.Min(e, 1)
	}
}

// Stats returns the memoized calibration for one (bench, width) pair,
// running it on first use.
func (m *Model) Stats(ctx context.Context, bench string, width int) (*WorkloadStats, error) {
	key := calibKey{bench: bench, width: width}
	m.mu.Lock()
	cell, ok := m.cells[key]
	if !ok {
		cell = &calibCell{}
		m.cells[key] = cell
	}
	m.mu.Unlock()
	cell.once.Do(func() {
		cell.stats, cell.err = m.calibrate(ctx, bench, width)
		if cell.err == nil {
			cell.done.Store(true)
		}
	})
	if cell.err != nil {
		// A failed calibration (typically a context deadline on the very
		// first caller) must not poison the pair forever: forget the cell
		// so the next caller retries.
		m.mu.Lock()
		if m.cells[key] == cell {
			delete(m.cells, key)
		}
		m.mu.Unlock()
	}
	return cell.stats, cell.err
}

// calibBudget resolves the calibration commit budget: the suite's default
// budget, or DefaultCalibBudget if the suite has none.
func (m *Model) calibBudget() int64 {
	if m.suite.Budget > 0 {
		return m.suite.Budget
	}
	return DefaultCalibBudget
}

// Warm reports whether the (bench, width) calibration has already completed
// successfully — a warm estimate is pure closed-form arithmetic.
func (m *Model) Warm(bench string, width int) bool {
	m.mu.Lock()
	cell, ok := m.cells[calibKey{bench: bench, width: width}]
	m.mu.Unlock()
	return ok && cell.done.Load()
}

// CalibrationRuns reports how many calibration simulations the model has
// requested from its suite (the suite's result table and cache may have answered
// some without simulating).
func (m *Model) CalibrationRuns() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// CalibrationRunsPerPair is the size of one (bench, width) calibration
// batch: the queue anchors (the largest doubling as the measurement run),
// the register anchors under each exception model, the two cache swaps, and
// the perfect-cache register-pressure interaction point.
func CalibrationRunsPerPair() int {
	return len(queueAnchors) + 2*len(regAnchors) + 3
}

// calibrate runs the anchor batch for one (bench, width) pair and reduces
// it to WorkloadStats.
func (m *Model) calibrate(ctx context.Context, bench string, width int) (*WorkloadStats, error) {
	b := m.calibBudget()
	qce := exper.CostEffectiveQueue(width)
	var specs []exper.Spec
	// Queue anchors at plentiful registers; the 256-entry one is the
	// measurement run that also collects the live-register histograms.
	for _, q := range queueAnchors {
		specs = append(specs, exper.Spec{
			Bench: bench, Width: width, Queue: q,
			Regs: exper.MeasureRegs, Model: rename.Precise,
			Cache: cache.LockupFree, Track: q == calQueue, Budget: b,
		})
	}
	// Register anchors at the cost-effective queue, once per exception
	// model.
	for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
		for _, r := range regAnchors {
			specs = append(specs, exper.Spec{
				Bench: bench, Width: width, Queue: qce,
				Regs: r, Model: model,
				Cache: cache.LockupFree, Budget: b,
			})
		}
	}
	// Cache swaps at the cost-effective queue, plentiful registers.
	for _, kind := range []cache.Kind{cache.Perfect, cache.Lockup} {
		specs = append(specs, exper.Spec{
			Bench: bench, Width: width, Queue: qce,
			Regs: exper.MeasureRegs, Model: rename.Precise,
			Cache: kind, Budget: b,
		})
	}
	// The perfect-cache × register-pressure interaction point: a starved
	// file under the perfect cache, from which ScalePerfect is solved.
	specs = append(specs, exper.Spec{
		Bench: bench, Width: width, Queue: qce,
		Regs: scaleAnchor, Model: rename.Precise,
		Cache: cache.Perfect, Budget: b,
	})
	m.mu.Lock()
	m.runs += int64(len(specs))
	m.mu.Unlock()
	results, err := m.suite.RunAll(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("twin: calibrating %s w=%d: %w", bench, width, err)
	}

	st := &WorkloadStats{Bench: bench, Width: width, Budget: b}
	nq := len(queueAnchors)
	st.QueueIPC = make([]float64, nq)
	for i := 0; i < nq; i++ {
		st.QueueIPC[i] = results[i].CommitIPC()
		// Isotonic clamp: the paper's law says non-decreasing; finite
		// budgets can wobble a hair, and a monotone anchor set is what
		// keeps the interpolated curve monotone by construction.
		if i > 0 && st.QueueIPC[i] < st.QueueIPC[i-1] {
			st.QueueIPC[i] = st.QueueIPC[i-1]
		}
	}
	st.BaseIPC = st.QueueIPC[nq-1]
	if st.BaseIPC <= 0 {
		return nil, fmt.Errorf("twin: calibrating %s w=%d: measurement run committed nothing", bench, width)
	}
	st.QceIPC = st.BaseIPC
	for i, q := range queueAnchors {
		if q == qce {
			st.QceIPC = st.QueueIPC[i]
		}
	}

	for m := 0; m < 2; m++ {
		st.RegEff[m] = make([]float64, len(regAnchors))
		for i := range regAnchors {
			e := results[nq+m*len(regAnchors)+i].CommitIPC() / st.QceIPC
			if e > 1 {
				e = 1
			}
			if e < 1e-4 {
				e = 1e-4
			}
			if i > 0 && e < st.RegEff[m][i-1] {
				e = st.RegEff[m][i-1]
			}
			// The imprecise freeing conditions are strictly weaker, so
			// its curve may never sit below the precise one.
			if m == 1 && e < st.RegEff[0][i] {
				e = st.RegEff[0][i]
			}
			st.RegEff[m][i] = e
		}
	}

	// The measurement run's mean live-register counts per file and
	// model — Figure 3's stacked regions, kept for inspection.
	measure := results[nq-1]
	for f := 0; f < 2; f++ {
		st.LiveMean[f][0] = histMean(measure.Live[f].Cum[rename.CatWaitPrecise], measure.Cycles)
		st.LiveMean[f][1] = histMean(measure.Live[f].Cum[rename.CatWaitImprecise], measure.Cycles)
	}

	if ipc := results[nq+2*len(regAnchors)].CommitIPC(); ipc > 0 {
		st.DeltaCPIPerfect = math.Min(0, 1/ipc-1/st.QceIPC)
	}
	if ipc := results[nq+2*len(regAnchors)+1].CommitIPC(); ipc > 0 {
		st.DeltaCPILockup = math.Max(0, 1/ipc-1/st.QceIPC)
	}

	// Solve ScalePerfect so the model is exact at the interaction point:
	// strip the CPI credit off the measured IPC to recover the core term,
	// then divide out the baseline register cap at the same file size.
	// Clamped to [1, 1/e] — at least no relief, at most full relief (the
	// point where the anchor's file stops binding at all).
	st.ScalePerfect = 1
	eAtScale := st.regCurve(0, scaleAnchor)
	if ipc := results[nq+2*len(regAnchors)+2].CommitIPC(); ipc > 0 && eAtScale > 0 && eAtScale < 1 {
		if invCore := 1/ipc - st.DeltaCPIPerfect; invCore > 0 {
			scale := 1 / (invCore * st.QceIPC * eAtScale)
			st.ScalePerfect = math.Min(math.Max(scale, 1), 1/eAtScale)
		}
	}

	if measure.Issued > 0 {
		st.LoadFrac = float64(measure.IssuedLoads) / float64(measure.Issued)
		st.CbrFrac = float64(measure.IssuedCondBr) / float64(measure.Issued)
	}
	st.MissRate = measure.LoadMissRate()
	st.MispRate = measure.MispredictRate()
	return st, nil
}

// histMean is the mean of a per-cycle count histogram: hist[n] holds the
// number of cycles with exactly n live registers.
func histMean(hist []int64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	var sum float64
	for n, c := range hist {
		sum += float64(n) * float64(c)
	}
	return sum / float64(cycles)
}
