package exper

import (
	"fmt"
	"io"

	"regsim/internal/isa"
	"regsim/internal/stats"
)

// PortUsage reports how many register-file ports the machine actually uses
// per cycle, against the paper's provisioning (§2.1/§3.4: the integer file
// has 2×width read and width write ports, the FP file half of each, with
// write ports sized "to prevent any write-port conflicts arising when
// registers are filled on the resolution of a cache miss"). The
// distributions justify (or question) that sizing: read demand is bounded by
// the issue rules, but completion-time writes can burst above the write-port
// budget when cache fills cluster.
type PortUsage struct {
	Budget int64
	// Indexed by width, then register file.
	Reads  map[int][2]stats.Dist
	Writes map[int][2]stats.Dist
	// Provisioned[width][file] = {reads, writes} the paper provides.
	Provisioned map[int][2][2]int
}

// Ports aggregates port-usage distributions across all benchmarks from the
// measurement runs (shared with Figures 3 and 4 through the result table).
func (s *Suite) Ports() (*PortUsage, error) {
	runs, err := s.measureRuns()
	if err != nil {
		return nil, err
	}
	pu := &PortUsage{
		Budget:      s.Budget,
		Reads:       map[int][2]stats.Dist{},
		Writes:      map[int][2]stats.Dist{},
		Provisioned: map[int][2][2]int{},
	}
	for i, width := range Widths {
		var reads, writes [2][]stats.Dist
		for _, res := range runs[i] {
			for file := 0; file < 2; file++ {
				reads[file] = append(reads[file], stats.Normalize(res.Ports[file].Reads))
				writes[file] = append(writes[file], stats.Normalize(res.Ports[file].Writes))
			}
		}
		var r, w [2]stats.Dist
		for file := 0; file < 2; file++ {
			r[file] = stats.Average(reads[file])
			w[file] = stats.Average(writes[file])
		}
		pu.Reads[width], pu.Writes[width] = r, w
		pu.Provisioned[width] = [2][2]int{
			isa.IntFile: {2 * width, width},
			isa.FPFile:  {width, width / 2},
		}
	}
	return pu, nil
}

// Print renders per-file usage percentiles against the provisioned ports.
func (p *PortUsage) Print(w io.Writer) {
	fmt.Fprintf(w, "Register-file port usage per cycle (measurement runs, both files)\n")
	fmt.Fprintf(w, "  %-18s %6s | %4s %4s %4s %5s | %10s\n",
		"configuration", "kind", "p50", "p90", "p99", "p100", "provisioned")
	for _, width := range Widths {
		for file := 0; file < 2; file++ {
			for _, kind := range []struct {
				name string
				d    stats.Dist
				prov int
			}{
				{"reads", p.Reads[width][file], p.Provisioned[width][file][0]},
				{"writes", p.Writes[width][file], p.Provisioned[width][file][1]},
			} {
				fmt.Fprintf(w, "  %d-way %-5s file   %6s | %4d %4d %4d %5d | %10d\n",
					width, isa.RegFile(file), kind.name,
					kind.d.Percentile(0.50), kind.d.Percentile(0.90),
					kind.d.Percentile(0.99), kind.d.FullCoveragePoint(), kind.prov)
			}
		}
	}
	fmt.Fprintf(w, "(write bursts above the provisioned count are the cache-fill conflicts the\n")
	fmt.Fprintf(w, " paper's inverted-MSHR write porting absorbs)\n")
}
