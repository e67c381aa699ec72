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
// The checkpoint store holds milestone snapshots: the machine's full state
// after m committed instructions, for m on ckpt.Milestones' power-of-two
// grid. A milestone key binds every spec dimension except the commit budget
// — a run's trajectory does not depend on where it will later be told to
// stop — so a later run of the same configuration at any budget resumes
// from the deepest milestone an earlier run reached, and a repeat at the
// same budget resumes at the budget itself. Every key folds in the
// simulator, workload, artifact, checkpoint and snapshot format versions
// plus the artifact's content ID, so stale stores read as misses, never as
// wrong results.

// ckptKeyMat is the key material for one milestone snapshot. Its JSON
// encoding is the key's preimage: changing a field or tag orphans every
// existing checkpoint directory.
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
}

func milestoneExactKey(spec Spec, art *prog.Artifact, mi int64) string {
	return rescache.Fingerprint(ckptKeyMat{
		Kind: "milestone-exact",
		Sim:  core.Version, Workload: workload.Version,
		Prog: prog.ArtifactVersion, Ckpt: ckpt.Version, Snap: core.SnapVersion,
		ProgID: art.ID(), Width: spec.Width, Queue: spec.Queue,
		Model: spec.Model.String(), Cache: spec.Cache.String(),
		Track: spec.Track, Regs: spec.Regs, Milestone: mi,
	})
}

// runCheckpointed simulates spec through the checkpoint store: resume from
// the deepest milestone an earlier run of the same configuration left (or
// start cold), simulate the rest while persisting each milestone reached,
// and return the result — bit-identical to the cold run's (core.Resume) —
// with its sibling metadata.
func (s *Suite) runCheckpointed(spec Spec, art *prog.Artifact, cfg core.Config) (*core.Result, siblingMeta, error) {
	st := s.Checkpoints
	ms := ckpt.Milestones(spec.Budget)
	var m *core.Machine
	next := 0
	for i := len(ms) - 1; i >= 0 && m == nil; i-- {
		if snap, ok := st.Snapshot(milestoneExactKey(spec, art, ms[i])); ok {
			if r, err := core.Resume(cfg, art, snap); err == nil {
				m, next = r, i+1
			}
		}
	}
	if m == nil {
		var err error
		if m, err = core.NewFromArtifact(cfg, art); err != nil {
			return nil, siblingMeta{}, err
		}
	} else {
		s.progressf("ckpt %-9s regs=%-4d %s: resumed at %d commits", spec.Bench, spec.Regs, spec.Model, ms[next-1])
	}
	s.sims.Add(1)

	var res *core.Result
	var err error
	for _, mi := range ms[next:] {
		if res, err = m.Run(mi); err != nil {
			return nil, siblingMeta{}, err
		}
		if snap, serr := m.Snapshot(); serr == nil {
			if perr := st.PutSnapshot(milestoneExactKey(spec, art, mi), snap); perr != nil {
				// Best effort: a lost milestone costs a future
				// re-simulation, never the sweep.
				s.progressf("ckpt put %s: %v", spec.Bench, perr)
			}
		}
	}
	if res == nil {
		// Resumed at the budget itself: Run is a no-op that finalizes.
		if res, err = m.Run(spec.Budget); err != nil {
			return nil, siblingMeta{}, err
		}
	}
	return res, finalMeta(m, spec), nil
}
