package exper

import (
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

// Checkpoint fast-forwarding: the sharing rules.
//
// The checkpoint store holds two entry kinds, each under exact and shared
// keys:
//
//   - Milestone snapshots: the machine's full state after m committed
//     instructions, for m on ckpt.Milestones' power-of-two grid. Milestone
//     keys exclude the commit budget — a run's trajectory does not depend
//     on where it will later be told to stop — so runs at different budgets
//     share prefixes. The exact key binds every remaining spec dimension
//     and is captured only into persistent (disk-backed) stores, where a
//     later process can resume from it; the shared key additionally drops
//     the register-file size, is captured whenever the run is still
//     pressure-free (core.Resume re-checks the retarget preconditions and
//     refuses entries the target file cannot soundly restore), and is what
//     a sweep's own sibling configurations fast-forward over.
//
//   - Final results: the finished Result plus sharing metadata. The exact
//     key binds everything including the budget (it is the in-store mirror
//     of the rescache entry, so checkpoint stores accelerate repeat sweeps
//     even without a persistent result cache). The shared key drops the
//     register-file size AND the exception model; a stored result is served
//     to a target only when the source run was pressure-free end to end,
//     the target file clears the source's final allocation watermarks by 2,
//     and the model is servable: a pressure-free run never exercises the
//     freeing discipline's only behavioural difference, but the imprecise
//     model's earlier frees keep its watermark at or below the precise
//     model's — so a precise source bounds both models while an imprecise
//     source is only proof for imprecise targets. The suite's sibling table
//     (siblings.go) applies the same rule within a process, store or not;
//     the shared final carries it to later processes.
//
// Every key folds in the simulator, workload, artifact, checkpoint and
// snapshot format versions plus the artifact's content ID, so stale stores
// read as misses, never as wrong results.

// ckptKeyMat is the key material for one checkpoint entry.
type ckptKeyMat struct {
	Kind      string `json:"kind"`
	Sim       string `json:"sim"`
	Workload  string `json:"workload"`
	Prog      string `json:"prog"`
	Ckpt      string `json:"ckpt"`
	Snap      string `json:"snap"`
	ProgID    string `json:"progID"`
	Width     int    `json:"width"`
	Queue     int    `json:"queue"`
	Model     string `json:"model,omitempty"`
	Cache     string `json:"cache"`
	Track     bool   `json:"track,omitempty"`
	Regs      int    `json:"regs,omitempty"`
	Milestone int64  `json:"milestone,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
}

func baseKeyMat(spec Spec, art *prog.Artifact) ckptKeyMat {
	return ckptKeyMat{
		Sim: core.Version, Workload: workload.Version,
		Prog: prog.ArtifactVersion, Ckpt: ckpt.Version, Snap: core.SnapVersion,
		ProgID: art.ID(), Width: spec.Width, Queue: spec.Queue,
		Model: spec.Model.String(), Cache: spec.Cache.String(),
	}
}

func milestoneExactKey(spec Spec, art *prog.Artifact, mi int64) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Regs, k.Track, k.Milestone = "milestone-exact", spec.Regs, spec.Track, mi
	return rescache.Fingerprint(k)
}

func milestoneSharedKey(spec Spec, art *prog.Artifact, mi int64) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Milestone = "milestone-shared", mi
	return rescache.Fingerprint(k)
}

func finalExactKey(spec Spec, art *prog.Artifact) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Regs, k.Track, k.Budget = "final-exact", spec.Regs, spec.Track, spec.Budget
	return rescache.Fingerprint(k)
}

func finalSharedKey(spec Spec, art *prog.Artifact) string {
	k := baseKeyMat(spec, art)
	k.Kind, k.Budget = "final-shared", spec.Budget
	k.Model = "" // cross-model: servability is decided from the entry's metadata
	return rescache.Fingerprint(k)
}

// servableShared decides whether a shared final-result entry may answer
// spec (the soundness argument is in the package comment above).
func servableShared(meta ckpt.ResultMeta, spec Spec) bool {
	if !meta.PressureFree {
		return false
	}
	if spec.Regs < max(meta.Watermark[0], meta.Watermark[1])+2 {
		return false
	}
	return meta.Model == spec.Model.String() ||
		(meta.Model == rename.Precise.String() && spec.Model == rename.Imprecise)
}

// finalMeta is the sharing metadata of spec's finished run on m.
func finalMeta(m *core.Machine, spec Spec) ckpt.ResultMeta {
	return ckpt.ResultMeta{
		Watermark:    m.RegWatermarks(),
		PressureFree: m.PressureFreeSoFar(),
		Model:        spec.Model.String(),
	}
}

// runCheckpointed simulates spec through the checkpoint store: serve the
// result outright if a servable final entry exists, otherwise resume from
// the deepest restorable milestone snapshot, simulate the remainder while
// capturing new milestones, and store the finished result. Every path
// produces a Result bit-identical to the cold run's, returned with the
// sharing metadata of the run that produced it.
func (s *Suite) runCheckpointed(spec Spec, art *prog.Artifact, cfg core.Config) (*core.Result, ckpt.ResultMeta, error) {
	st := s.Checkpoints
	exactFinal := finalExactKey(spec, art)
	if res, meta, ok := st.Result(exactFinal); ok {
		s.progressf("ckpt %-9s regs=%-4d %s: final (exact)", spec.Bench, spec.Regs, spec.Model)
		return res, meta, nil
	}
	sharedFinal := ""
	if !spec.Track {
		sharedFinal = finalSharedKey(spec, art)
		if res, meta, ok := st.Result(sharedFinal); ok && servableShared(meta, spec) {
			s.progressf("ckpt %-9s regs=%-4d %s: final (shared, wm=%v)", spec.Bench, spec.Regs, spec.Model, meta.Watermark)
			return res, meta, nil
		}
	}

	ms := ckpt.Milestones(spec.Budget)
	var m *core.Machine
	next := 0
scan:
	for i := len(ms) - 1; i >= 0; i-- {
		if snap, ok := st.Snapshot(milestoneExactKey(spec, art, ms[i])); ok {
			if r, err := core.Resume(cfg, art, snap); err == nil {
				m, next = r, i+1
				break scan
			}
		}
		if spec.Track {
			continue
		}
		if snap, ok := st.Snapshot(milestoneSharedKey(spec, art, ms[i])); ok {
			if r, err := core.Resume(cfg, art, snap); err == nil {
				m, next = r, i+1
				break scan
			}
			// A shared snapshot the target cannot restore — typically a
			// watermark the smaller register file does not clear — is not
			// an error; an earlier milestone may still be servable.
		}
	}
	if m == nil {
		var err error
		if m, err = core.NewFromArtifact(cfg, art); err != nil {
			return nil, ckpt.ResultMeta{}, err
		}
	} else {
		s.progressf("ckpt %-9s regs=%-4d %s: resumed at %d commits", spec.Bench, spec.Regs, spec.Model, ms[next-1])
	}
	s.sims.Add(1)

	var res *core.Result
	var err error
	// Capture policy: snapshots are taken only where reuse is possible.
	// Exact milestones pay off solely across processes (a later run of the
	// same spec at a different budget), so they are captured only into
	// persistent stores — for a memory-only store they would be pure
	// overhead on every simulated run — and only to disk: same-budget
	// repeats are memoized, so this process never reads them back. Shared
	// milestones are what the sweep's own siblings fast-forward over, so
	// they are captured whenever the run is still pressure-free; in memory
	// they are put-if-absent (any pressure-free source is an equally valid
	// prefix).
	persist := st.Dir() != ""
	for i := next; i < len(ms); i++ {
		if res, err = m.Run(ms[i]); err != nil {
			return nil, ckpt.ResultMeta{}, err
		}
		capture := persist
		sharedKey := ""
		if !spec.Track && m.PressureFreeSoFar() {
			sharedKey = milestoneSharedKey(spec, art, ms[i])
			if !persist {
				if _, ok := st.Snapshot(sharedKey); ok {
					sharedKey = ""
				}
			}
			capture = capture || sharedKey != ""
		}
		if !capture {
			continue
		}
		if snap, serr := m.Snapshot(); serr == nil {
			if persist {
				s.logPut(spec, st.PersistSnapshot(milestoneExactKey(spec, art, ms[i]), snap))
			}
			if sharedKey != "" {
				s.logPut(spec, st.PutSnapshot(sharedKey, snap))
			}
		}
	}
	if res == nil {
		// Resumed from a snapshot at (or beyond) the budget itself — a
		// larger-budget run's milestone. Run is a no-op that finalizes.
		if res, err = m.Run(spec.Budget); err != nil {
			return nil, ckpt.ResultMeta{}, err
		}
	}

	meta := finalMeta(m, spec)
	s.logPut(spec, st.PutResult(exactFinal, res, meta))
	if sharedFinal != "" && meta.PressureFree {
		// Put-if-absent: an existing entry is never less servable than this
		// one would be (pressure-free trajectories are size-independent, and
		// sweeps order precise before imprecise), so keep the first.
		if _, _, ok := st.Result(sharedFinal); !ok {
			s.logPut(spec, st.PutResult(sharedFinal, res, meta))
		}
	}
	return res, meta, nil
}

// logPut reports a failed checkpoint-store write. Persistence is best
// effort: a lost disk entry costs a future re-simulation, never the sweep.
func (s *Suite) logPut(spec Spec, err error) {
	if err != nil {
		s.progressf("ckpt put %s: %v", spec.Bench, err)
	}
}
