package exper

import (
	"regsim/internal/ckpt"
	"regsim/internal/core"
	"regsim/internal/prog"
	"regsim/internal/sweep/rescache"
	"regsim/internal/workload"
)

// Checkpoint fast-forwarding across budgets.
//
// The checkpoint store holds one snapshot per configuration: the deepest
// state a run of it stored. The key binds every spec dimension except the
// budget, plus the simulator, workload, artifact, checkpoint and snapshot
// versions and the artifact's content ID, so stale stores read as misses.
//
// A run stops at the first cycle boundary with committed >= budget, and its
// trajectory does not depend on the budget, so a cold run to budget B passes
// through every stopped state of at most B commits: resuming from one is
// exact. A state past B may lie beyond the cold run's stop and is never
// resumed. Each run stores its state one commit bundle short of its budget
// (at most 2·width retire per cycle, so stopping at budget-2·width+1 lands
// at or before the budget), which a same-budget repeat can resume too.

// ckptKeyMat is the key material for a configuration's snapshot. Its JSON
// encoding is the key's preimage: changing a field or tag orphans every
// existing checkpoint directory.
type ckptKeyMat struct {
	Kind     string `json:"kind"`
	Sim      string `json:"sim"`
	Workload string `json:"workload"`
	Prog     string `json:"prog"`
	Ckpt     string `json:"ckpt"`
	Snap     string `json:"snap"`
	ProgID   string `json:"progID"`
	Width    int    `json:"width"`
	Queue    int    `json:"queue"`
	Model    string `json:"model,omitempty"`
	Cache    string `json:"cache"`
	Track    bool   `json:"track,omitempty"`
	Regs     int    `json:"regs,omitempty"`
}

func configKey(spec Spec, art *prog.Artifact) string {
	return rescache.Fingerprint(ckptKeyMat{
		Kind: "deepest",
		Sim:  core.Version, Workload: workload.Version,
		Prog: prog.ArtifactVersion, Ckpt: ckpt.Version, Snap: core.SnapVersion,
		ProgID: art.ID(), Width: spec.Width, Queue: spec.Queue,
		Model: spec.Model.String(), Cache: spec.Cache.String(),
		Track: spec.Track, Regs: spec.Regs,
	})
}

// runCheckpointed simulates spec through the checkpoint store: resume from
// the stored state if it lies on the way to the budget, else start cold; run
// to the budget, storing the state short of it only if that goes deeper
// than the stored one, so racing runs can leave a shallower state, never a
// wrong one. The result is bit-identical to the cold run's (core.Resume).
// The store captures and decodes through pooled scratch graphs, so neither
// end allocates a snapshot per run.
func (s *Suite) runCheckpointed(spec Spec, art *prog.Artifact, cfg core.Config) (*core.Result, siblingMeta, error) {
	key := configKey(spec, art)
	m, depth := s.Checkpoints.Resume(key, spec.Budget, cfg, art)
	if m != nil {
		s.progressf("ckpt %-9s regs=%-4d %s: resumed at %d commits", spec.Bench, spec.Regs, spec.Model, depth)
	} else {
		var err error
		if m, err = core.NewFromArtifact(cfg, art); err != nil {
			return nil, siblingMeta{}, err
		}
	}
	s.sims.Add(1)

	short, err := m.Run(spec.Budget - 2*int64(spec.Width) + 1)
	if err != nil {
		return nil, siblingMeta{}, err
	}
	if short.Committed > depth {
		if perr := s.Checkpoints.Capture(key, m); perr != nil {
			// Best effort: a lost snapshot costs a future
			// re-simulation, never the sweep.
			s.progressf("ckpt put %s: %v", spec.Bench, perr)
		}
	}
	res, err := m.Run(spec.Budget)
	if err != nil {
		return nil, siblingMeta{}, err
	}
	return res, finalMeta(m, spec), nil
}
