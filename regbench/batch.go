package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// goldens are SHA-256 digests of paper's stdout for the batch workloads'
// invocations. Output is byte-identical with or without stores and at any
// -jobs, so one digest covers cold, warm and extended runs alike. After an
// intended output change, regenerate with
// `paper -n <budget> -no-cache <figure> | sha256sum`.
var goldens = map[string]string{
	"fig6 -n 50000":  "861131bd3384ffeb8aa53ddf408a089e74903b0ab6ed3bba58600335b35cf5de",
	"fig6 -n 100000": "9705c884c94b457460895c6fc6a81889e06bcaad1b739ea607e7e56d9f6fc57c",
	"fig3 -n 50000":  "6f7a73eb6b31b27a2a33c7d52a33941b2fbf3da3fa2bce214cc751e95db53b2a",
	"fig7 -n 50000":  "8ecf2f7ba11dd7ad28dcf53cb5d39e58fee7f39f1115b247846e15693e47f7a3",
}

// batchSetupReps is how many set-up invocations a batch run times; each
// takes a few milliseconds, so many are cheap and steady the median.
const batchSetupReps = 15

// warmReruns is how many warm fig6 reruns one session makes.
const warmReruns = 10

// outcome is one finished paper invocation.
type outcome struct {
	d     time.Duration
	rssMB float64 // peak resident set size
	ok    bool    // exit 0 and stdout matched its golden
}

// paper samples the host gauge, then runs one paper invocation with -jobs 2
// at the given budget. figure names the experiment and, with the budget, the
// golden its stdout must match; flags go before it.
func (b *bench) paper(figure, budget string, flags ...string) (outcome, error) {
	args := append([]string{"-n", budget, "-jobs", "2"}, flags...)
	args = append(args, figure)
	b.gauge.sample()
	sp, _ := b.span(nil, "paper "+figure+" -n "+budget)
	sp.Set("args", strings.Join(args, " "))
	defer sp.End()
	digest := sha256.New()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, "paper"), args...)
	cmd.Stdout = digest
	cmd.Stderr = &stderr
	cmd.SysProcAttr = dieWithHarness()
	start := time.Now()
	err := cmd.Run()
	o := outcome{d: time.Since(start)}
	if b.ctx.Err() != nil {
		return o, b.ctx.Err()
	}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return o, err // the binary could not be started at all
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	want, checked := goldens[figure+" -n "+budget]
	got := hex.EncodeToString(digest.Sum(nil))
	switch {
	case err != nil:
		fmt.Fprintf(b.log, "paper %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	case checked && got != want:
		fmt.Fprintf(b.log, "paper %s: stdout digest %s, want %s\n", strings.Join(args, " "), got, want)
	default:
		o.ok = true
	}
	return o, nil
}

// count records a measured invocation in the report and returns its wall
// time in milliseconds.
func (r *report) count(o outcome) float64 {
	r.attempted++
	if !o.ok {
		r.failed++
	}
	r.peakRSS = max(r.peakRSS, o.rssMB)
	return ms(o.d)
}

// batchSetup records setup_s: the median over batchSetupReps of the
// smallest complete paper invocation, `-n 1 -no-cache table1` — process
// start, workload generation, artifact predecode and 18 one-commit runs,
// the fixed cost every timed invocation pays before it simulates. It opens
// no store: store writes on a shared disk made the median swing by half
// between sets of runs.
func (b *bench) batchSetup(r *report) error {
	var secs []float64
	for range batchSetupReps {
		o, err := b.paper("table1", "1", "-no-cache")
		if err != nil {
			return err
		}
		if !o.ok {
			return errors.New("set-up invocation failed")
		}
		secs = append(secs, o.d.Seconds())
	}
	r.metrics["setup_s"] = median(secs)
	return nil
}

func storeFlags(dir string) []string {
	return []string{"-cache-dir", filepath.Join(dir, "D"), "-checkpoint-dir", filepath.Join(dir, "C")}
}

// runFig6Session repeats cold / warm ×10 / extend sessions over fresh
// stores.
func runFig6Session(b *bench) (*report, error) {
	r := newReport()
	if err := b.batchSetup(r); err != nil {
		return nil, err
	}
	b.gauge.startMeasuring()
	var cold, warm, extend []float64
	var storesMB [2]float64 // D and C after the last session
	elapsed, err := b.repeat(func() error {
		dir, err := b.freshDir("session-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		o, err := b.paper("fig6", "50000", storeFlags(dir)...)
		if err != nil {
			return err
		}
		cold = append(cold, r.count(o))
		for range warmReruns {
			if o, err = b.paper("fig6", "50000", storeFlags(dir)...); err != nil {
				return err
			}
			warm = append(warm, r.count(o))
		}
		if o, err = b.paper("fig6", "100000", storeFlags(dir)...); err != nil {
			return err
		}
		extend = append(extend, r.count(o))
		storesMB = [2]float64{dirMB(filepath.Join(dir, "D")), dirMB(filepath.Join(dir, "C"))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.batchMetrics(median(cold), median(warm), median(extend), elapsed)
	if !b.traced {
		return r, nil
	}
	err = b.batchLayers(r, fig6Specs(), []replicaPhase{
		{"cold", 50_000, []string{"fig6"}, median(cold)},
		{"warm", 50_000, []string{"fig6"}, median(warm)},
		{"extend", 100_000, []string{"fig6"}, median(extend)},
	}, true, storesMB)
	return r, err
}

// runFig3Fig7Cold repeats the fig3 and fig7 sweeps with every store
// bypassed.
func runFig3Fig7Cold(b *bench) (*report, error) {
	r := newReport()
	if err := b.batchSetup(r); err != nil {
		return nil, err
	}
	b.gauge.startMeasuring()
	var sweeps []float64
	elapsed, err := b.repeat(func() error {
		total := 0.0
		for _, fig := range []string{"fig3", "fig7"} {
			o, err := b.paper(fig, "50000", "-no-cache")
			if err != nil {
				return err
			}
			total += r.count(o)
		}
		sweeps = append(sweeps, total)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// With every store bypassed, repeating or extending the sweep
	// re-simulates it in full: warm and extend cost what cold does.
	sweep := median(sweeps)
	r.batchMetrics(sweep, sweep, sweep, elapsed)
	if !b.traced {
		return r, nil
	}
	err = b.batchLayers(r, append(fig3Specs(), fig7Specs()...), []replicaPhase{
		{"cold", 50_000, []string{"fig3", "fig7"}, sweep},
	}, false, [2]float64{})
	return r, err
}

// batchMetrics fills the end-to-end metrics a batch workload shares.
func (r *report) batchMetrics(cold, warm, extend float64, elapsed time.Duration) {
	r.metrics["cold_ms"] = cold
	r.metrics["warm_ms"] = warm
	r.metrics["extend_ms"] = extend
	r.metrics["ops_per_s"] = float64(r.attempted) / elapsed.Seconds()
	r.metrics["peak_rss_mb"] = r.peakRSS
}

// The harness's own copy of the figures' spec matrices (the suite keeps its
// lists private), used to sample the workload's inputs for layer probes.

func fig6Specs() []exper.Spec {
	var specs []exper.Spec
	for _, width := range exper.Widths {
		for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
			for _, regs := range exper.RegSizes {
				for _, bench := range workload.Names() {
					specs = append(specs, exper.Spec{Bench: bench, Width: width, Queue: exper.CostEffectiveQueue(width),
						Regs: regs, Model: model, Cache: cache.LockupFree})
				}
			}
		}
	}
	return specs
}

func fig7Specs() []exper.Spec {
	var specs []exper.Spec
	for _, kind := range []cache.Kind{cache.Perfect, cache.LockupFree, cache.Lockup} {
		for _, s := range fig6Specs() {
			s.Cache = kind
			specs = append(specs, s)
		}
	}
	return specs
}

func fig3Specs() []exper.Spec {
	var specs []exper.Spec
	for _, width := range exper.Widths {
		for _, queue := range exper.QueueSizes {
			for _, bench := range workload.Names() {
				specs = append(specs, exper.Spec{Bench: bench, Width: width, Queue: queue,
					Regs: exper.MeasureRegs, Model: rename.Precise, Cache: cache.LockupFree, Track: true})
			}
		}
	}
	return specs
}
