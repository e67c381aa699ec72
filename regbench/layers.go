package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/prog"
	"regsim/internal/sweep/rescache"
	"regsim/internal/telemetry"
	"regsim/internal/workload"
)

// probeSample is how many of the workload's distinct specs the layer probes
// time: enough to average over benchmarks and configurations, few enough
// that a traced run stays within its time budget.
const probeSample = 16

// snapshotSample is how many of the sampled specs the snapshot, resume and
// checkpoint-store probes walk through the milestone grid.
const snapshotSample = 4

// replicaJobs mirrors paper's -jobs 2 in the in-process replica.
const replicaJobs = 2

// replicaPhase is one batch phase replicated in process.
type replicaPhase struct {
	name    string // cold, warm or extend
	budget  int64
	figures []string // each on its own suite, as paper runs each in its own process
	cliMS   float64  // the untraced paper phase's median wall time
}

// phaseStats is what one replica phase measured.
type phaseStats struct {
	wall  time.Duration
	ckpt  ckpt.Stats
	cache rescache.Stats
	sweep telemetry.SweepStats

	// From Suite.Progress: executions not answered by the result cache,
	// those answered by a checkpoint final, those resumed from a milestone,
	// and the commits resumed over.
	ran, finals, resumed, resumedAt int64
	commits                         int64
	// Snapshot entries in the checkpoint dir when the phase started, and
	// entries it added.
	snapshotsBefore, snapshots int
}

// observe classifies one Suite.Progress line (the suite serialises calls).
func (st *phaseStats) observe(line string) {
	switch {
	case strings.HasPrefix(line, "ran "):
		st.ran++
	case strings.HasPrefix(line, "ckpt ") && strings.Contains(line, ": final ("):
		st.finals++
	case strings.HasPrefix(line, "ckpt "):
		if _, after, ok := strings.Cut(line, "resumed at "); ok {
			var n int64
			if _, err := fmt.Sscanf(after, "%d", &n); err == nil {
				st.resumed++
				st.resumedAt += n
			}
		}
	}
}

// runFigure regenerates one figure on s and renders it, as paper does.
func runFigure(s *exper.Suite, name string) error {
	var fig interface{ Print(io.Writer) }
	var err error
	switch name {
	case "fig3":
		fig, err = s.Fig3()
	case "fig6":
		fig, err = s.Fig6()
	case "fig7":
		fig, err = s.Fig7()
	default:
		return fmt.Errorf("no replica for %s", name)
	}
	if err != nil {
		return err
	}
	fig.Print(io.Discard)
	return nil
}

// snapshotEntries counts snapshot entries in a checkpoint dir (ckpt
// suffixes snapshot keys with "-s").
func snapshotEntries(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "-s.json") {
			n++
		}
		return nil
	})
	return n
}

// replica runs each phase's figures in process through exper.Suite, with
// fresh disk stores shared across the phases when stores is set. Spans wrap
// the harness's calls only; the suite never sees a traced context.
func (b *bench) replica(phases []replicaPhase, stores bool) ([]phaseStats, error) {
	var cacheDir, ckptDir string
	if stores {
		dir, err := b.freshDir("replica-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cacheDir, ckptDir = filepath.Join(dir, "D"), filepath.Join(dir, "C")
	}
	out := make([]phaseStats, len(phases))
	for i, p := range phases {
		sp, ctx := b.span(nil, "replica."+p.name)
		st := &out[i]
		st.snapshotsBefore = snapshotEntries(ckptDir)
		for _, fig := range p.figures {
			s := exper.NewSuite(p.budget)
			s.Jobs = replicaJobs
			s.Progress = st.observe
			if stores {
				var err error
				if s.Cache, err = rescache.Open(cacheDir); err != nil {
					return nil, err
				}
				if s.Checkpoints, err = ckpt.OpenStore(ckptDir); err != nil {
					return nil, err
				}
			}
			before := snapshotEntries(ckptDir)
			fsp, _ := b.span(ctx, "exper."+fig)
			start := time.Now()
			err := runFigure(s, fig)
			st.wall += time.Since(start)
			fsp.End()
			if err != nil {
				return nil, err
			}
			st.snapshots += snapshotEntries(ckptDir) - before
			sw := s.SweepStats()
			st.sweep.Runs += sw.Runs
			st.sweep.MemoHits += sw.MemoHits
			st.sweep.Deduped += sw.Deduped
			if stores {
				cs, ks := s.Cache.Stats(), s.Checkpoints.Stats()
				st.cache.Hits += cs.Hits
				st.cache.Misses += cs.Misses
				st.cache.Errors += cs.Errors
				st.ckpt.SnapshotHits += ks.SnapshotHits
				st.ckpt.SnapshotMisses += ks.SnapshotMisses
				st.ckpt.ResultHits += ks.ResultHits
				st.ckpt.ResultMisses += ks.ResultMisses
			}
		}
		st.commits = (st.ran-st.finals)*p.budget - st.resumedAt
		sp.Set("wall_s", st.wall.Seconds())
		sp.End()
	}
	return out, nil
}

// probes are per-call costs of each layer's public functions, timed on a
// sample of the workload's own specs.
type probes struct {
	nsPerCommit, nsPerCycle     float64
	committed, cycles           int64
	newUS, snapshotUS, resumeUS float64
	artifactMS                  float64
	ckptPutMS, ckptGetMS        float64
	snapshotKB                  float64
	cacheGetUS, cachePutUS      float64
	fingerprintUS               float64
	memoHitUS                   float64
}

// spread picks n specs spread evenly over the workload's distinct specs.
func spread(specs []exper.Spec, n int) []exper.Spec {
	if len(specs) <= n {
		return specs
	}
	out := make([]exper.Spec, n)
	for i := range out {
		out[i] = specs[i*len(specs)/n]
	}
	return out
}

// probeLayers times each layer's public calls on a sample of specs at the
// workload's budget. memo, when non-nil, is a suite that has already run
// every sampled spec; otherwise the memo probe runs them first.
func (b *bench) probeLayers(specs []exper.Spec, budget int64, memo *exper.Suite) (*probes, error) {
	specs = spread(specs, probeSample)
	p := &probes{}
	all, ctx := b.span(nil, "probes")
	defer all.End()
	sp, _ := b.span(ctx, "probe.prog")
	arts := map[string]*prog.Artifact{}
	var builds []float64
	for range 3 {
		start := time.Now()
		for _, name := range workload.Names() {
			prg, err := workload.Build(name)
			if err != nil {
				return nil, err
			}
			if arts[name], err = prog.NewArtifact(prg); err != nil {
				return nil, err
			}
		}
		builds = append(builds, ms(time.Since(start)))
	}
	p.artifactMS = median(builds)
	sp.End()

	// The core probe runs replicaJobs machines at a time, as paper -jobs 2
	// does, so its per-commit cost includes the contention the sweeps see
	// and the decomposition's core term matches the phases it explains.
	sp, _ = b.span(ctx, "probe.core")
	results := make([]*core.Result, len(specs))
	newD := make([]time.Duration, len(specs))
	runD := make([]time.Duration, len(specs))
	errs := make([]error, replicaJobs)
	var wg sync.WaitGroup
	for w := range replicaJobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(specs); i += replicaJobs {
				start := time.Now()
				m, err := core.NewFromArtifact(specs[i].Config(), arts[specs[i].Bench])
				newD[i] = time.Since(start)
				if err != nil {
					errs[w] = err
					return
				}
				start = time.Now()
				results[i], err = m.Run(budget)
				runD[i] = time.Since(start)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var newSum, runSum time.Duration
	for i, res := range results {
		p.committed += res.Committed
		p.cycles += res.Cycles
		newSum += newD[i]
		runSum += runD[i]
	}
	p.newUS = float64(newSum.Microseconds()) / float64(len(specs))
	p.nsPerCommit = float64(runSum.Nanoseconds()) / float64(p.committed)
	p.nsPerCycle = float64(runSum.Nanoseconds()) / float64(p.cycles)
	sp.End()

	sp, _ = b.span(ctx, "probe.snapshot")
	var snaps []*core.Snapshot
	var snapD, resumeD time.Duration
	for _, spec := range specs {
		if spec.Track || len(snaps) >= snapshotSample*len(ckpt.Milestones(budget)) {
			continue // tracked runs take no snapshots
		}
		cfg, art := spec.Config(), arts[spec.Bench]
		m, err := core.NewFromArtifact(cfg, art)
		if err != nil {
			return nil, err
		}
		for _, mi := range ckpt.Milestones(budget) {
			if _, err := m.Run(mi); err != nil {
				return nil, err
			}
			start := time.Now()
			snap, err := m.Snapshot()
			snapD += time.Since(start)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			_, err = core.Resume(cfg, art, snap)
			resumeD += time.Since(start)
			if err != nil {
				return nil, err
			}
			snaps = append(snaps, snap)
		}
	}
	if len(snaps) > 0 {
		p.snapshotUS = float64(snapD.Microseconds()) / float64(len(snaps))
		p.resumeUS = float64(resumeD.Microseconds()) / float64(len(snaps))
	}
	sp.End()

	dir, err := b.freshDir("probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp, _ = b.span(ctx, "probe.ckpt")
	if err := p.probeCheckpoints(filepath.Join(dir, "C"), snaps); err != nil {
		return nil, err
	}
	sp.End()
	sp, _ = b.span(ctx, "probe.rescache")
	if err := p.probeResultCache(filepath.Join(dir, "D"), specs, budget, results); err != nil {
		return nil, err
	}
	sp.End()

	sp, _ = b.span(ctx, "probe.exper")
	const fingerprints = 2000
	start := time.Now()
	for i := range fingerprints {
		spec := specs[i%len(specs)]
		spec.Budget = budget
		exper.Fingerprint(spec)
	}
	p.fingerprintUS = float64(time.Since(start).Nanoseconds()) / fingerprints / 1e3
	sp.End()

	sp, _ = b.span(ctx, "probe.sweep")
	if memo == nil {
		memo = exper.NewSuite(budget)
		memo.Jobs = replicaJobs
		if _, err := memo.RunAll(context.Background(), specs); err != nil {
			return nil, err
		}
	}
	const memoHits = 2000
	start = time.Now()
	for i := range memoHits {
		if _, err := memo.Run(specs[i%len(specs)]); err != nil {
			return nil, err
		}
	}
	p.memoHitUS = float64(time.Since(start).Nanoseconds()) / memoHits / 1e3
	sp.End()
	return p, nil
}

// probeCheckpoints times PutSnapshot into a disk store and Snapshot from a
// fresh store on the same dir (a disk read, as a later process sees it), and
// measures each entry's encoded size.
func (p *probes) probeCheckpoints(dir string, snaps []*core.Snapshot) error {
	if len(snaps) == 0 {
		return nil
	}
	st, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	var putD time.Duration
	var bytes int
	for i, snap := range snaps {
		key := fmt.Sprintf("probe-%d", i)
		start := time.Now()
		if err := st.PutSnapshot(key, snap); err != nil {
			return err
		}
		putD += time.Since(start)
		enc, err := ckpt.Encode(&ckpt.Envelope{Format: ckpt.FormatVersion, Version: ckpt.Version,
			Kind: ckpt.KindSnapshot, Key: key, Snap: snap})
		if err != nil {
			return err
		}
		bytes += len(enc)
	}
	fresh, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := range snaps {
		if _, ok := fresh.Snapshot(fmt.Sprintf("probe-%d", i)); !ok {
			return fmt.Errorf("checkpoint probe: entry %d did not read back", i)
		}
	}
	n := float64(len(snaps))
	p.ckptGetMS = ms(time.Since(start)) / n
	p.ckptPutMS = ms(putD) / n
	p.snapshotKB = float64(bytes) / n / 1024
	return nil
}

// probeResultCache times rescache Put and Get of the workload's own Results
// under their real fingerprints.
func (p *probes) probeResultCache(dir string, specs []exper.Spec, budget int64, results []*core.Result) error {
	st, err := rescache.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, len(specs))
	start := time.Now()
	for i, spec := range specs {
		spec.Budget = budget
		keys[i] = exper.Fingerprint(spec)
		if err := st.Put(keys[i], results[i]); err != nil {
			return err
		}
	}
	n := float64(len(specs))
	p.cachePutUS = float64(time.Since(start).Microseconds()) / n
	start = time.Now()
	for _, key := range keys {
		var r core.Result
		if !st.Get(key, &r) {
			return fmt.Errorf("result-cache probe: %s did not read back", key)
		}
	}
	p.cacheGetUS = float64(time.Since(start).Microseconds()) / n
	return nil
}

// fill records the probe metrics every workload reports.
func (p *probes) fill(layers map[string]float64) {
	layers["core.ns_per_commit"] = p.nsPerCommit
	layers["core.ns_per_cycle"] = p.nsPerCycle
	layers["core.committed"] = float64(p.committed)
	layers["core.sim_cycles"] = float64(p.cycles)
	layers["core.new_us"] = p.newUS
	layers["core.snapshot_us"] = p.snapshotUS
	layers["core.resume_us"] = p.resumeUS
	layers["prog.artifact_ms"] = p.artifactMS
	layers["ckpt.put_ms"] = p.ckptPutMS
	layers["ckpt.get_ms"] = p.ckptGetMS
	layers["ckpt.snapshot_kb"] = p.snapshotKB
	layers["rescache.get_us"] = p.cacheGetUS
	layers["rescache.put_us"] = p.cachePutUS
	layers["exper.fingerprint_us"] = p.fingerprintUS
	layers["sweep.memo_hit_us"] = p.memoHitUS
}

// zeroReplicaLayers sets every metric the batch replica measures to zero,
// for workloads (or phases) the replica does not run.
func zeroReplicaLayers(l map[string]float64) {
	for _, phase := range []string{"cold", "warm", "extend"} {
		for _, k := range []string{"snapshot_hits", "snapshot_misses", "result_hits", "result_misses"} {
			l["ckpt."+phase+"."+k] = 0
		}
		l["exper."+phase+".residual_s"] = 0
	}
	for _, k := range []string{"ckpt.resumed_share", "ckpt.simulated_commits", "ckpt.disk_mb", "trace.overhead_s"} {
		l[k] = 0
	}
}

// batchLayers runs a batch workload's traced extras — the replica, the
// layer probes and the decomposition — and fills every per-layer metric.
// storesMB holds the sizes of the result and checkpoint dirs after a session.
func (b *bench) batchLayers(r *report, specs []exper.Spec, phases []replicaPhase, stores bool, storesMB [2]float64) error {
	stats, err := b.replica(phases, stores)
	if err != nil {
		return err
	}
	p, err := b.probeLayers(specs, phases[0].budget, nil)
	if err != nil {
		return err
	}
	l := r.layers
	p.fill(l)
	zeroServingLayers(l)
	zeroReplicaLayers(l)
	var simulated, resumed, commits int64
	var replicaS, cliS float64
	for i, ph := range phases {
		st := stats[i]
		l["ckpt."+ph.name+".snapshot_hits"] = float64(st.ckpt.SnapshotHits)
		l["ckpt."+ph.name+".snapshot_misses"] = float64(st.ckpt.SnapshotMisses)
		l["ckpt."+ph.name+".result_hits"] = float64(st.ckpt.ResultHits)
		l["ckpt."+ph.name+".result_misses"] = float64(st.ckpt.ResultMisses)
		l["exper."+ph.name+".residual_s"] = b.decompose(ph, st, p)
		simulated += st.ran - st.finals
		resumed += st.resumed
		commits += st.commits
		l["rescache.hits"] += float64(st.cache.Hits)
		l["rescache.misses"] += float64(st.cache.Misses)
		l["rescache.errors"] += float64(st.cache.Errors)
		l["sweep.runs"] += float64(st.sweep.Runs)
		l["sweep.memo_hits"] += float64(st.sweep.MemoHits)
		l["sweep.deduped"] += float64(st.sweep.Deduped)
		replicaS += st.wall.Seconds()
		cliS += ph.cliMS / 1e3
	}
	if simulated > 0 {
		l["ckpt.resumed_share"] = float64(resumed) / float64(simulated)
	}
	l["ckpt.simulated_commits"] = float64(commits)
	l["rescache.disk_mb"] = storesMB[0]
	l["ckpt.disk_mb"] = storesMB[1]
	l["trace.overhead_s"] = replicaS - cliS
	fmt.Fprintf(b.log, "tracing overhead: traced replica %.3f s − untraced paper phases %.3f s = %.3f s\n",
		replicaS, cliS, replicaS-cliS)
	return nil
}

// decompose prints one replica phase's decomposition — wall time = Σ(count ×
// per-call time) / jobs + residual — and returns the residual in seconds.
// Per-call times come from the probes, counts from the phase's own stores
// and progress lines; the residual is what no probe covers: orchestration,
// sharing logic, scheduling gaps and rendering.
func (b *bench) decompose(ph replicaPhase, st phaseStats, p *probes) float64 {
	lookups := float64(st.cache.Hits + st.cache.Misses)
	// A phase that starts on an empty checkpoint dir can only hit entries it
	// put itself, which the store answers from memory; otherwise count every
	// hit as a disk read (an upper bound: repeat hits are memory hits too).
	diskReads := float64(st.ckpt.SnapshotHits)
	if st.snapshotsBefore == 0 {
		diskReads = 0
	}
	terms := []struct {
		layer   string
		count   float64
		perCall float64 // seconds
	}{
		{"core.new", float64(st.ran - st.finals - st.resumed), p.newUS * 1e-6},
		{"core.resume", float64(st.resumed), p.resumeUS * 1e-6},
		{"core.run (per commit)", float64(st.commits), p.nsPerCommit * 1e-9},
		{"core.snapshot", float64(st.snapshots), p.snapshotUS * 1e-6},
		{"ckpt.put", float64(st.snapshots), p.ckptPutMS * 1e-3},
		{"ckpt.get (disk)", diskReads, p.ckptGetMS * 1e-3},
		{"ckpt.result lookup", float64(st.ckpt.ResultHits + st.ckpt.ResultMisses), p.cacheGetUS * 1e-6},
		{"rescache.get", lookups, p.cacheGetUS * 1e-6},
		{"rescache.put", float64(st.cache.Misses), p.cachePutUS * 1e-6},
		{"exper.fingerprint", lookups, p.fingerprintUS * 1e-6},
		{"prog.artifact (9 benches)", float64(len(ph.figures)), p.artifactMS * 1e-3},
	}
	wall := st.wall.Seconds()
	fmt.Fprintf(b.log, "\nphase %s (budget %d): wall %.3f s = Σ(count × per-call) / %d jobs + exper.%s.residual_s\n",
		ph.name, ph.budget, wall, replicaJobs, ph.name)
	tw := tabwriter.NewWriter(b.log, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcount\tper-call s\ttotal s\t")
	var sum float64
	for _, t := range terms {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n", t.layer, fmtf(t.count), fmtf(t.perCall), fmtf(t.count*t.perCall))
		sum += t.count * t.perCall
	}
	residual := wall - sum/replicaJobs
	fmt.Fprintf(tw, "layers / %d jobs\t\t\t%s\t\n", replicaJobs, fmtf(sum/replicaJobs))
	fmt.Fprintf(tw, "exper.%s.residual_s\t\t\t%s\t\n", ph.name, fmtf(residual))
	tw.Flush()
	return residual
}
