// Command paper regenerates the tables and figures of Farkas, Jouppi & Chow,
// "Register File Design Considerations in Dynamically Scheduled Processors"
// (WRL 95/10 / HPCA'96).
//
// Usage:
//
//	paper [-n budget] [-jobs N] [-cache-dir dir] [-v] table1|fig3|fig4|fig5|fig6|fig7|fig8|fig10|findings|regreq|ports|ablations|all
//
// -n sets the committed-instruction budget per simulation (default 200000;
// the paper ran 23M–910M instructions per benchmark, but the distributions
// and averages converge much earlier for the synthetic stand-ins).
//
// Sweeps run on the parallel sweep engine: -jobs bounds the number of
// concurrent simulations (default GOMAXPROCS; output is byte-identical
// regardless), and completed results persist in -cache-dir (default under
// the user cache directory), making reruns at the same budget near-instant.
// -no-cache bypasses the store.
//
// -checkpoint-dir attaches the architectural checkpoint store (shared with
// cmd/regsim): each configuration keeps one mid-run machine snapshot, the
// deepest a run of it stored, and a later sweep at the same or a larger
// budget fast-forwards each configuration from it, with bit-identical
// output. A sweep at a smaller budget simulates in full. With -v, the
// store's counters print after the sweep's: snapshot hits (runs that
// resumed), misses, and, when there are any, stored states deeper than the
// budget, which a run cannot resume from.
//
// -sample <rate in (0,1)> switches sweeps to sampled simulation: each run
// simulates only that fraction of its budget and extrapolates the rest at
// the measured prefix's steady-half IPC, exactly as cmd/regsim -sample does,
// so figures render in a fraction of the time but carry estimation error
// (bounds in EXPERIMENTS.md) and never enter the result cache. Tracked
// (live-register) runs always run exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"regsim/internal/ckpt"
	"regsim/internal/exper"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
)

// defaultCacheDir places the persistent result cache under the OS user
// cache directory; empty (caching off) when the platform reports none.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "regsim", "results")
}

func main() {
	budget := flag.Int64("n", 200_000, "committed instructions per simulation")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations during sweeps")
	cacheDir := flag.String("cache-dir", defaultCacheDir(), "persistent result-cache directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the persistent result cache")
	verbose := flag.Bool("v", false, "print a line per completed simulation")
	progress := flag.Bool("progress", false, "print in-run heartbeats (cycles, committed, IPC, ETA) for long sweeps")
	plots := flag.Bool("plots", false, "also render figures as ASCII charts")
	asJSON := flag.Bool("json", false, "emit the experiment's data as JSON instead of tables")
	ckptDir := flag.String("checkpoint-dir", "", "architectural checkpoint directory shared with cmd/regsim: keep each configuration's deepest machine snapshot and fast-forward runs at the same or a larger budget from it, bit-identically (empty disables checkpointing)")
	sample := flag.Float64("sample", 0, "sampled simulation: each run simulates this fraction of its budget, in (0,1), and extrapolates the rest (figures become estimates; 0 disables)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paper [-n budget] [-jobs N] [-cache-dir dir] [-checkpoint-dir dir] [-sample rate] [-v] [-progress] table1|fig3|fig4|fig5|fig6|fig7|fig8|fig10|findings|regreq|ports|ablations|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Reject malformed sweep parameters with a usage error rather than
	// handing them to the engine: the flag is wrong, not the sweep.
	if *jobs < 1 {
		fatalUsage("invalid -jobs %d: the sweep needs at least one worker", *jobs)
	}
	if *budget < 1 {
		fatalUsage("invalid -n %d: each simulation must commit at least one instruction", *budget)
	}
	// An unknown experiment name is a usage error too — caught before any
	// sweeping starts, so a typo cannot burn a long run first.
	if !knownExperiment(flag.Arg(0)) {
		fatalUsage("unknown experiment %q (want %s)", flag.Arg(0), strings.Join(experimentNames, "|"))
	}
	// The sampling rate gates how much of every run simulates at all, so a
	// malformed value is a usage error, not something to clamp silently.
	// The range check is positive so that NaN, unordered with everything,
	// fails it.
	if *sample != 0 && !(*sample > 0 && *sample < 1) {
		fatalUsage("invalid -sample %v: the sampling rate must lie in (0, 1), or 0 to disable", *sample)
	}

	s := exper.NewSuite(*budget)
	s.Jobs = *jobs
	if !*noCache && *cacheDir != "" {
		store, err := rescache.Open(*cacheDir)
		if err != nil {
			fatalUsage("invalid -cache-dir %q: %v", *cacheDir, err)
		}
		s.Cache = store
	}
	if *ckptDir != "" {
		store, err := ckpt.OpenStore(*ckptDir)
		if err != nil {
			fatalUsage("invalid -checkpoint-dir %q: %v", *ckptDir, err)
		}
		s.Checkpoints = store
	}
	s.SampleRate = *sample
	if *verbose {
		s.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *progress {
		s.Heartbeat = func(p telemetry.Progress) {
			if !p.Done { // per-run completion is already the -v line
				fmt.Fprintf(os.Stderr, "  ... %s\n", p)
			}
		}
		// Scale the heartbeat period so a run reports a handful of times
		// regardless of budget (cycles ≈ budget / IPC; IPC ≈ 2–6).
		s.HeartbeatEvery = *budget / 8
		if s.HeartbeatEvery < 1<<12 {
			s.HeartbeatEvery = 1 << 12
		}
	}
	start := time.Now()
	if err := run(os.Stdout, s, flag.Arg(0), *plots, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "%v\n", s.SweepStats())
		if s.Checkpoints != nil {
			st := s.Checkpoints.Stats()
			fmt.Fprintf(os.Stderr, "ckpt: %d snapshot hits, %d misses", st.SnapshotHits, st.SnapshotMisses)
			if st.SnapshotDeeper > 0 {
				fmt.Fprintf(os.Stderr, ", %d deeper than the budget", st.SnapshotDeeper)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Fprintf(os.Stderr, "\n[%s, budget %d instructions/run, %d jobs]\n", time.Since(start).Round(time.Millisecond), *budget, *jobs)
}

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paper: "+format+"\n", args...)
	os.Exit(2)
}

// experimentNames is the dispatch vocabulary of run, in usage-line order.
var experimentNames = []string{
	"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
	"findings", "regreq", "ports", "ablations", "all",
}

func knownExperiment(name string) bool {
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}

type printer interface{ Print(io.Writer) }

func run(out io.Writer, s *exper.Suite, what string, plots, asJSON bool) error {
	emit := func(v printer) error {
		if asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		v.Print(out)
		if p, ok := v.(interface{ Plot(io.Writer) }); ok && plots {
			fmt.Fprintln(out)
			p.Plot(out)
		}
		return nil
	}
	switch what {
	case "table1":
		t, err := s.Table1()
		if err != nil {
			return err
		}
		return emit(t)
	case "fig3":
		f, err := s.Fig3()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig4":
		f, err := s.Fig4()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig5":
		f, err := s.Fig5()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig6":
		f, err := s.Fig6()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig7":
		f, err := s.Fig7()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig8":
		f, err := s.Fig8()
		if err != nil {
			return err
		}
		return emit(f)
	case "fig10":
		f, err := s.Fig10(nil)
		if err != nil {
			return err
		}
		return emit(f)
	case "regreq":
		r, err := s.RegReq()
		if err != nil {
			return err
		}
		return emit(r)
	case "ports":
		p, err := s.Ports()
		if err != nil {
			return err
		}
		return emit(p)
	case "ablations":
		a, err := s.RunAblations()
		if err != nil {
			return err
		}
		return emit(a)
	case "findings":
		f, err := s.Findings(nil, nil, nil)
		if err != nil {
			return err
		}
		return emit(f)
	case "all":
		t1, err := s.Table1()
		if err != nil {
			return err
		}
		t1.Print(out)
		fmt.Fprintln(out)
		f3, err := s.Fig3()
		if err != nil {
			return err
		}
		f3.Print(out)
		fmt.Fprintln(out)
		f4, err := s.Fig4()
		if err != nil {
			return err
		}
		f4.Print(out)
		fmt.Fprintln(out)
		f5, err := s.Fig5()
		if err != nil {
			return err
		}
		f5.Print(out)
		fmt.Fprintln(out)
		f6, err := s.Fig6()
		if err != nil {
			return err
		}
		f6.Print(out)
		fmt.Fprintln(out)
		f7, err := s.Fig7()
		if err != nil {
			return err
		}
		f7.Print(out)
		fmt.Fprintln(out)
		f8, err := s.Fig8()
		if err != nil {
			return err
		}
		f8.Print(out)
		fmt.Fprintln(out)
		f10, err := s.Fig10(f6)
		if err != nil {
			return err
		}
		f10.Print(out)
		fmt.Fprintln(out)
		fd, err := s.Findings(f3, f6, f10)
		if err != nil {
			return err
		}
		fd.Print(out)
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}
