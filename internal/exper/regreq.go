package exper

import (
	"fmt"
	"io"

	"regsim/internal/isa"
	"regsim/internal/rename"
	"regsim/internal/stats"
	"regsim/internal/workload"
)

// RegReqRow is one benchmark's register requirement at one issue width: the
// 90th-percentile live-register counts under both exception models, for both
// files — the per-benchmark decomposition behind the paper's averaged
// Figures 3 and 4.
type RegReqRow struct {
	Bench string
	Width int
	// [file] indexed; Precise is total live registers, Imprecise the
	// imprecise-model requirement (both 90th percentiles).
	Precise   [2]int
	Imprecise [2]int
	// P100 is the largest precise-model count ever observed.
	P100 [2]int
	// CommitIPC at the measurement configuration.
	CommitIPC float64
}

// RegReq is the per-benchmark register-requirement table.
type RegReq struct {
	Budget int64
	Rows   []RegReqRow
}

// RegReq builds the table from the measurement runs (shared with Figures
// 3–5 and 8 through the result table).
func (s *Suite) RegReq() (*RegReq, error) {
	runs, err := s.measureRuns()
	if err != nil {
		return nil, err
	}
	out := &RegReq{Budget: s.Budget}
	for w, width := range Widths {
		for b, bench := range workload.Names() {
			res := runs[w][b]
			row := RegReqRow{Bench: bench, Width: width, CommitIPC: res.CommitIPC()}
			for file := 0; file < 2; file++ {
				prec := stats.Normalize(res.Live[file].Cum[rename.CatWaitPrecise])
				imp := stats.Normalize(res.Live[file].Cum[rename.CatWaitImprecise])
				row.Precise[file] = prec.Percentile(0.90)
				row.Imprecise[file] = imp.Percentile(0.90)
				row.P100[file] = prec.FullCoveragePoint()
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Print renders the table.
func (r *RegReq) Print(w io.Writer) {
	fmt.Fprintf(w, "Per-benchmark register requirements (90th percentile; cost-effective queues)\n")
	fmt.Fprintf(w, "%-9s %5s | %8s %8s %6s | %8s %8s %6s | %6s\n",
		"bench", "width", "int-prec", "int-impr", "p100",
		"fp-prec", "fp-impr", "p100", "IPC")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9s %5d | %8d %8d %6d | %8d %8d %6d | %6.2f\n",
			row.Bench, row.Width,
			row.Precise[isa.IntFile], row.Imprecise[isa.IntFile], row.P100[isa.IntFile],
			row.Precise[isa.FPFile], row.Imprecise[isa.FPFile], row.P100[isa.FPFile],
			row.CommitIPC)
	}
	fmt.Fprintf(w, "(integer-only benchmarks hold the FP floor of 32: the reset mappings plus the zero register)\n")
}
