// Command rftime explores the multiported register-file cycle-time model
// (paper §3.4, Figure 10's timing curves).
//
// Usage:
//
//	rftime [-read N -write N] [-regs list]     # explicit ports
//	rftime [-width 4|8] [-fp] [-regs list]     # the paper's provisioning
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"regsim"
)

// fatalUsage reports a bad flag combination and exits with the
// conventional usage status.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rftime: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	width := flag.Int("width", 4, "issue width used to derive ports (ignored when -read/-write set)")
	fp := flag.Bool("fp", false, "floating-point file (half the ports)")
	read := flag.Int("read", 0, "explicit read ports")
	write := flag.Int("write", 0, "explicit write ports")
	regList := flag.String("regs", "32,48,64,80,96,128,160,256", "comma-separated register counts")
	flag.Parse()
	if flag.NArg() != 0 {
		fatalUsage("unexpected arguments %q (rftime is flag-driven)", flag.Args())
	}

	// Validate every flag, the whole -regs list included, before printing
	// anything: a malformed flag is a usage error (exit 2), not a partial
	// table.
	if *read < 0 || *write < 0 {
		fatalUsage("invalid ports -read %d -write %d: port counts cannot be negative", *read, *write)
	}
	explicitPorts := *read > 0 || *write > 0
	if explicitPorts && (*read == 0 || *write == 0) {
		fatalUsage("explicit ports need both -read and -write (got -read %d -write %d)", *read, *write)
	}
	if !explicitPorts && *width != 4 && *width != 8 {
		fatalUsage("invalid -width %d: the provisioning model covers issue widths 4 and 8 (use -read/-write for other port counts)", *width)
	}

	var regs []int
	for _, field := range strings.Split(*regList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 1 {
			fatalUsage("invalid -regs entry %q: want a positive integer", field)
		}
		regs = append(regs, n)
	}

	ports := regsim.PortsForWidth(*width, *fp)
	if explicitPorts {
		ports = regsim.TimingPorts{Read: *read, Write: *write}
	}
	params := regsim.DefaultTimingParams()

	fmt.Printf("register file timing, %d read / %d write ports (0.5µm model)\n", ports.Read, ports.Write)
	fmt.Printf("%6s %10s %10s %10s %10s %10s %10s %12s\n",
		"regs", "decode", "wordline", "bitline", "sense+out", "access", "cycle", "area(mm²)")
	for _, n := range regs {
		d := params.Delays(n, ports)
		g := params.Geometry(n, ports)
		fmt.Printf("%6d %9.3f %10.3f %10.3f %10.3f %10.3f %10.3f %12.3f\n",
			n, d.Decode, d.Wordline, d.Bitline, d.Sense+d.Output, d.Access, d.Cycle, g.AreaSquareMM)
	}
}
