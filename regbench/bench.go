package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"regsim/internal/obs"
	"regsim/internal/trace"
)

// workloads maps each --workload name to its driver. A driver measures for
// b.window, fills the report's end-to-end metrics, and on a traced run its
// per-layer metrics too.
var workloads = map[string]func(b *bench) (*report, error){
	"fig6-session":   runFig6Session,
	"fig3-fig7-cold": runFig3Fig7Cold,
	"serve-mixed":    func(b *bench) (*report, error) { return runServing(b, false) },
	"route-mixed":    func(b *bench) (*report, error) { return runServing(b, true) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// bench is one run's environment.
type bench struct {
	ctx    context.Context
	name   string
	bin    string // directory of the built binaries
	out    string // .bench_build: traces land here
	work   string // this run's scratch directory, removed by close
	seed   int64
	window time.Duration // how long the run measures
	traced bool
	log    io.Writer
	gauge  *gauge // sampled between timed operations

	// root is the harness's own span on traced runs (nil otherwise, which
	// makes every span call a no-op); tctx carries it.
	root *obs.Span
	tctx context.Context
}

func newBench(ctx context.Context, root, bin, name string, seed int64, seconds int, traced bool, log io.Writer) (*bench, error) {
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		ctx: ctx, name: name, bin: bin, out: out, work: work, seed: seed,
		window: time.Duration(seconds) * time.Second, traced: traced, log: log,
		gauge: newGauge(), tctx: context.Background(),
	}
	if traced {
		b.root, b.tctx = obs.StartTrace(context.Background(), "regbench "+name)
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// span starts a harness span under the run's root (a no-op when untraced).
// The returned context must never reach exper.Suite (see the package doc).
func (b *bench) span(ctx context.Context, name string) (*obs.Span, context.Context) {
	if ctx == nil {
		ctx = b.tctx
	}
	return obs.StartSpan(ctx, name)
}

// writeTrace exports the harness spans as a Perfetto-loadable file.
func (b *bench) writeTrace() error {
	b.root.End()
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.json", b.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ChromeSpans(f, b.root.Snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "trace written to %s\n", path)
	return nil
}

// dieWithHarness makes a child process receive SIGKILL if the harness dies
// without stopping it — killed outright, or ended by a write to a standard
// error whose reader has gone — so no daemon or paper invocation outlives a
// run. The harness locks no goroutine to an OS thread, so the thread that
// starts a child lives as long as the harness.
func dieWithHarness() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// freshDir returns a new empty directory under the run's scratch space.
func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix)
}

// dirMB is the total size of the regular files under dir, in MiB.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeat runs rep until the measurement window is spent: always once, and
// again only while the previous repetition's length still fits, so a run
// overshoots its window by less than one repetition. It returns the time
// spent, then samples the gauge once more so that the last operation, like
// every other, has a sample on each side.
func (b *bench) repeat(rep func() error) (time.Duration, error) {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= b.window; n++ {
		if err := b.ctx.Err(); err != nil {
			return 0, err
		}
		t := time.Now()
		if err := rep(); err != nil {
			return 0, err
		}
		last = time.Since(t)
	}
	elapsed := time.Since(start)
	b.gauge.sample()
	return elapsed, nil
}

// fmtf formats a metric value for the human-readable tables.
func fmtf(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
