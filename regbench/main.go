// Command regbench is the repository's end-to-end benchmark. It drives the
// shipped binaries — cmd/paper, cmd/regsimd and cmd/regsim-router, built from
// the checkout by run.sh — through one named workload for a fixed number of
// seconds, checks every output, and prints one JSON result line. With
// --trace 1 it additionally replicates each batch phase in process, times
// each layer's public calls on the workload's own inputs, writes a Perfetto
// trace under .bench_build/, and prints a per-phase decomposition table to
// standard error.
//
// Usage, from the repository root:
//
//	bash regbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash regbench/run.sh --compare base.jsonl new.jsonl
//
// The last line of standard output is
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}},
// holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
// per_layer metric with --trace 1. Usage errors exit 2, measurement failures
// exit 1 without a result line.
//
// # Machine and load
//
// The reference machine is a 2-CPU virtual machine shared with other
// tenants, so every number is a median over repetitions within a run (and
// comparisons take medians over runs). Its speed drifts with the other
// tenants' load, by up to 2.5× over minutes, so end-to-end times and rates
// are reported at the host's reference speed: each run samples a fixed
// computation that runs no repository code (the host gauge, gauge.go)
// between its timed operations and scales by it. The values as measured and
// the scale go to standard error. Judge changes smaller than the bounds with
// --compare's rank test over paired runs. All load comes from this one
// process: paper runs with -jobs 2, and the serving workloads are closed
// loops of 2 client goroutines on at most 2 HTTP connections — each client
// sends its next request only after the previous reply. Batch workloads are
// deterministic (the spec matrices are the paper's); serving workloads draw
// their request stream from --seed.
//
// # Workloads
//
//   - fig6-session: repeated researcher sessions with every amortization
//     store on. Each repetition takes fresh empty dirs D and C and runs
//     `paper -n 50000 -jobs 2 -cache-dir D -checkpoint-dir C fig6` once cold,
//     10 times warm, and once extended to -n 100000. It is the only workload
//     where rescache put/get, checkpoint capture, shared and exact resume and
//     cross-budget resume all do real work, so a store change's gains and
//     losses both show here.
//   - fig3-fig7-cold: `paper -n 50000 -jobs 2 -no-cache fig3`, then fig7,
//     repeated. Bound by the cycle loop with no store work, it is the bypass
//     case for every store change, and it covers what Fig. 6 skips: tracked
//     2048-register runs at queues 8–256, lockup and perfect caches.
//   - serve-mixed: one `regsimd -n 30000 -jobs 2 -cache-dir <fresh> -quiet`
//     with a 64-spec hot set prefilled, then 2 closed-loop clients on a seeded
//     mix: 85% warm /v1/simulate on the hot set, 10% cold /v1/simulate on
//     never-repeated specs, 5% /v1/sweep of 8 specs (6 hot, 2 new). Warm
//     requests are bound by the serving shell, cold ones by the cycle loop,
//     and the never-repeated specs grow the daemon's unbounded sweep memo.
//   - route-mixed: the same seeded stream through `regsim-router -n 30000`
//     over two such regsimd workers, isolating the router hop, affinity
//     routing and sweep sharding.
//
// # End-to-end metrics
//
// Every workload reports every metric; where a workload has no distinct
// operation of a kind, the definition says what stands in.
//
//   - setup_s (s): median of several set-ups in the run. Serving: exec of the
//     daemons to every /healthz answering 200 plus the hot-set prefill, on a
//     fresh cache dir each time. Batch: the smallest complete paper
//     invocation (`-n 1 -no-cache table1`): process start, workload
//     generation and artifact predecode, so work moved into start-up shows.
//   - cold_ms (ms): median latency of an operation nothing stored can
//     answer: the cold fig6 sweep; the fig3 plus fig7 sweeps; a cold
//     /v1/simulate (median over 5-second windows of each window's p50; the
//     clients pause between windows while the gauge is sampled).
//   - warm_ms (ms): median latency of repeating an operation already done:
//     a warm fig6 rerun; a warm /v1/simulate (windowed like cold_ms). On
//     fig3-fig7-cold, which bypasses every store, a repeat re-simulates in
//     full and the value is its per-repetition sweep time, equal to cold_ms.
//   - extend_ms (ms): median latency of an operation that extends stored
//     work with new work: fig6 at -n 100000 over the 50000-commit stores; a
//     /v1/sweep of 6 memoized and 2 new specs (windowed). On fig3-fig7-cold
//     it equals cold_ms, as for warm_ms.
//   - ops_per_s (1/s): operations completed per measured second — paper
//     invocations on batch workloads, HTTP requests on serving ones.
//   - peak_rss_mb (MiB): batch, the largest peak RSS of any paper
//     invocation; serving, the sum of the daemons' VmHWM once 150 requests
//     per measured second have completed, so the memo it includes holds the
//     same requests' results however fast the host ran. Not scaled.
//
// Failures — a non-zero exit, a non-2xx reply, a transport error, a 429, or
// an output differing from its reference — count in "failed" against
// "attempted" operations. Batch outputs are checked against SHA-256 digests
// of paper's stdout (goldens in batch.go); serving replies are checked
// byte-for-byte against Results computed in process, untimed, for the hot
// set and the first 16 cold specs, and every other reply must echo its spec
// and commit its full budget (overshooting by less than one cycle's commit
// bandwidth).
//
// # Per-layer metrics (--trace 1)
//
// Each layer metric names the end-to-end metric it should move, and where.
// Counts that describe simulated behaviour (core.committed, core.sim_cycles)
// must repeat exactly; a change means the simulator changed. Metrics of a
// layer a workload does not exercise read 0.
//
//   - core.ns_per_commit, core.ns_per_cycle (ns), core.committed,
//     core.sim_cycles: core.NewFromArtifact + Machine.Run over a fixed sample
//     of the workload's distinct specs at its budget, no stores, two
//     machines at a time as paper -jobs 2 runs them. Moves
//     cold_ms everywhere; flat on warm_ms of fig6-session and serving.
//   - core.new_us, core.snapshot_us, core.resume_us (µs): NewFromArtifact,
//     Machine.Snapshot at the ckpt.Milestones grid, core.Resume. New moves
//     cold_ms everywhere; snapshot and resume move cold_ms and extend_ms on
//     fig6-session.
//   - prog.artifact_ms (ms): workload.Build + prog.NewArtifact for all 9
//     benchmarks. Moves cold_ms; setup_s everywhere.
//   - ckpt.{cold,warm,extend}.{snapshot,result}_{hits,misses},
//     ckpt.resumed_share, ckpt.simulated_commits: ckpt.Store.Stats() and
//     Suite.Progress lines of the in-process replica of each batch phase.
//     Move cold_ms and extend_ms on fig6-session; zero on fig3-fig7-cold.
//   - ckpt.put_ms, ckpt.get_ms, ckpt.snapshot_kb, ckpt.disk_mb: PutSnapshot
//     into an OpenStore dir; Snapshot from a fresh store on that dir;
//     ckpt.Encode size; size of dir C after a session. Put moves cold_ms, get
//     moves extend_ms, on fig6-session.
//   - rescache.get_us, rescache.put_us, rescache.{hits,misses,errors},
//     rescache.disk_mb: Store.Get/Put on the workload's own Results, replica
//     or daemon counters, store size. Get moves warm_ms on fig6-session; put
//     moves cold_ms on fig6-session and serving.
//   - sweep.runs, sweep.memo_hits, sweep.deduped, sweep.memo_hit_us:
//     Suite.SweepStats() of the replica or the daemons' /metrics, and
//     Suite.Run on a memoized spec. Move warm_ms on serve-mixed and
//     peak_rss_mb (memo size).
//   - exper.fingerprint_us, exper.{cold,warm,extend}.residual_s:
//     exper.Fingerprint, and each replica phase's wall time minus its layer
//     sum — process-free orchestration, sharing logic and rendering. The
//     fingerprint moves warm_ms on route-mixed (the routing key).
//   - server.handler_us, server.net_us, server.admission_wait_ms,
//     server.refused: a warm /v1/simulate through Server.Handler() with a
//     recorder; the direct warm p50 minus that; the daemons' mean
//     regsim_admission_wait_ms and 429 count. Move warm_ms, cold_ms and
//     ops_per_s on serve-mixed.
//   - cluster.hop_ms, cluster.handler_us, cluster.reroutes,
//     cluster.spillovers, cluster.max_worker_share: routed minus direct warm
//     p50 from an interleaved single-client probe; Router.Handler() with a
//     recorder over in-process workers, minus server.handler_us; /v1/cluster
//     counters and the busiest worker's share of upstream calls. Move warm_ms
//     and ops_per_s on route-mixed; zero elsewhere.
//   - trace.overhead_s: the traced replica's wall time minus the untraced
//     paper phases' median wall times (those include process start and
//     output that the replica skips, so it can be negative).
//
// The replica never passes a traced context into exper.Suite: traced runs
// force telemetry on, which makes the suite refuse its checkpoint store, so
// the replica would measure a different program. Spans wrap the harness's
// own calls only.
//
// # Why the command-line binaries
//
// cmd/bench's Fig6Cold case times Fig. 6 against an in-memory checkpoint
// store, which no command opens: cmd/paper and cmd/regsim only open disk
// stores, whose snapshot writes are a large share of the cold sweep (see
// ckpt.put in fig6-session's cold decomposition). This benchmark therefore
// times the binaries as users run them.
//
// # Comparing runs
//
// --compare reads two files of result lines (one run's last line each, one
// workload per file) and prints, per end-to-end metric, both medians and
// interquartile ranges, the Mann-Whitney U p-value, and a verdict against
// the metric's BENCHMARK.json bound. It exits 1 when a metric is worse by
// more than its bound with p < 0.05.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names and units it must report, and the bounds --compare judges by.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed of the serving workloads' request stream")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	traced := fs.Int("trace", 0, "1 adds the in-process replica, layer probes, Perfetto trace and decomposition, and reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of result lines: --compare base.jsonl new.jsonl")
	root := fs.String("root", ".", "repository checkout holding BENCHMARK.json")
	bin := fs.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built paper, regsimd and regsim-router")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "regbench: --compare wants two files: base.jsonl new.jsonl")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl, ok := workloads[*name]
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "regbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "regbench: unknown --workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "regbench: invalid --seconds %d: want at least 1\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "regbench: invalid --trace %d: want 0 or 1\n", *traced)
		return 2
	}

	b, err := newBench(ctx, *root, *bin, *name, *seed, *seconds, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %v\n", err)
		return 1
	}
	defer b.close()
	rep, err := wl(b)
	if err == nil && b.traced {
		err = b.writeTrace()
	}
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %s: %v\n", *name, err)
		return 1
	}
	want, got := spec.EndToEnd, rep.metrics
	if b.traced {
		want, got = spec.PerLayer, rep.layers
	} else {
		setupSpeed, runSpeed := speed(b.gauge.setup), speed(b.gauge.measure)
		fmt.Fprintf(stderr, "host speed of reference: %.3f in set-up (%d gauge samples), %.3f measuring (%d); as measured:",
			setupSpeed, len(b.gauge.setup), runSpeed, len(b.gauge.measure))
		for _, m := range want {
			if v, ok := got[m.Name]; ok {
				fmt.Fprintf(stderr, " %s=%s", m.Name, fmtf(v))
				s := runSpeed
				if m.Name == "setup_s" {
					s = setupSpeed
				}
				got[m.Name] = scaled(m.Unit, v, s)
			}
		}
		fmt.Fprintln(stderr)
	}
	line, err := rep.result(want, got)
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	peakRSS           float64            // MiB
	metrics           map[string]float64 // end-to-end, by BENCHMARK.json name
	layers            map[string]float64 // per-layer, filled by traced runs
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, layers: map[string]float64{}}
}

// result renders the result line, requiring exactly the metrics want names:
// a missing or an unexpected metric is a harness bug, not a measurement.
func (r *report) result(want []metricSpec, got map[string]float64) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = value{v, m.Unit}
	}
	for name := range got {
		if !slices.ContainsFunc(want, func(m metricSpec) bool { return m.Name == name }) {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if r.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
}
