package exper

import (
	"context"
	"fmt"
	"io"

	"regsim/internal/cache"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// Table1Row reproduces one row of the paper's Table 1 for one issue width:
// dynamic statistics with 2048 physical registers and the 64 KB 2-way
// lockup-free data cache (16-cycle fetch latency), a 32-entry dispatch queue
// at 4-way issue and a 64-entry queue at 8-way.
type Table1Row struct {
	Bench     string
	Width     int
	Committed int64 // committed ("commit") instructions
	Executed  int64 // executed (issued) instructions, including squashed
	ExecLoads int64
	ExecCbr   int64
	IssueIPC  float64
	CommitIPC float64
	// MissRate is the data-cache load miss rate; MispRate the conditional-
	// branch misprediction rate (the paper's "Rates" columns).
	MissRate float64
	MispRate float64
}

// Table1 holds the reproduced table.
type Table1 struct {
	Budget int64
	Rows   []Table1Row
}

// Table1 runs the table's 18 configurations as one batch across the suite's
// worker pool and renders them in row order.
func (s *Suite) Table1() (*Table1, error) {
	var specs []Spec
	for _, bench := range workload.Names() {
		for _, width := range Widths {
			specs = append(specs, Spec{
				Bench: bench, Width: width, Queue: CostEffectiveQueue(width),
				Regs: MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree,
			})
		}
	}
	results, err := s.RunAll(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	t := &Table1{Budget: s.Budget}
	for i, res := range results {
		t.Rows = append(t.Rows, Table1Row{
			Bench:     specs[i].Bench,
			Width:     specs[i].Width,
			Committed: res.Committed,
			Executed:  res.Issued,
			ExecLoads: res.IssuedLoads,
			ExecCbr:   res.IssuedCondBr,
			IssueIPC:  res.IssueIPC(),
			CommitIPC: res.CommitIPC(),
			MissRate:  res.LoadMissRate(),
			MispRate:  res.MispredictRate(),
		})
	}
	return t, nil
}

// Print renders the table in the paper's layout (one row per benchmark with
// 4-way and 8-way column groups). Instruction counts are in thousands here
// (the paper used full SPEC runs counted in millions).
func (t *Table1) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1: dynamic statistics (2048 regs, 64KB 2-way lockup-free, 16-cycle fetch; %dk committed per run)\n", t.Budget/1000)
	fmt.Fprintf(w, "%-9s | %27s | %27s\n", "", "------- 4-way issue -------", "------- 8-way issue -------")
	fmt.Fprintf(w, "%-9s | %6s %6s %5s %5s %5s %5s | %6s %6s %5s %5s %5s %5s\n",
		"bench", "exec-k", "ld%", "cbr%", "iIPC", "cIPC", "rates", "exec-k", "ld%", "cbr%", "iIPC", "cIPC", "rates")
	byBench := map[string]map[int]Table1Row{}
	for _, r := range t.Rows {
		if byBench[r.Bench] == nil {
			byBench[r.Bench] = map[int]Table1Row{}
		}
		byBench[r.Bench][r.Width] = r
	}
	for _, bench := range workload.Names() {
		r4, r8 := byBench[bench][4], byBench[bench][8]
		cell := func(r Table1Row) string {
			return fmt.Sprintf("%6d %5.1f%% %4.1f%% %5.2f %5.2f %2.0f/%-2.0f",
				r.Executed/1000,
				100*float64(r.ExecLoads)/float64(max64(r.Executed, 1)),
				100*float64(r.ExecCbr)/float64(max64(r.Executed, 1)),
				r.IssueIPC, r.CommitIPC, 100*r.MissRate, 100*r.MispRate)
		}
		fmt.Fprintf(w, "%-9s | %s | %s\n", bench, cell(r4), cell(r8))
	}
	fmt.Fprintf(w, "(rates column: load-miss%%/cbr-mispredict%%)\n")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
