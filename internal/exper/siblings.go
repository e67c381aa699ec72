package exper

import (
	"regsim/internal/core"
	"regsim/internal/rename"
)

// Sibling sharing: a finished run answers the specs that differ from it only
// in register-file size and exception model (its siblings). The suite keeps
// the pressure-free results of its exact runs in its result table (table.go)
// and consults it before simulating; RunAll schedules each batch trunk-first
// so the sibling that can serve the others usually finishes before they
// start.
//
// Why a pressure-free result answers its siblings (servableShared):
//
//   - Register-file size. The rename free list pops from its end, so the
//     never-allocated registers — exactly those above the allocation
//     watermark — always form its front prefix [n-1 .. wm+1] in descending
//     order, and every live or recycled register is ≤ wm (rename.RestoreUnit
//     refuses a snapshot that breaks this). Each allocation therefore takes
//     the last recycled register or, when none is free, the register just
//     above the current watermark; neither depends on n. A run that never
//     ticked a register-pressure counter never found its list empty. A cold
//     run at any n ≥ wm+2, wm being the source's final watermark, holds the
//     same list with only the untouched prefix resized, makes the same
//     allocations at the same cycles, and never empties its list either,
//     because register wm+1 is never taken. Its trajectory, and so its
//     Result, is the source's.
//   - Exception model. A pressure-free run never exercises the freeing
//     discipline's only behavioural difference, but the imprecise model's
//     earlier frees keep its watermark at or below the precise model's. A
//     precise source therefore bounds both models, while an imprecise source
//     is proof only for imprecise targets.
//
// A resumed run's watermarks come from its snapshot, so rename.RestoreUnit
// checks the free-list prefix of every snapshot it restores.

// siblingMeta qualifies a finished run's result for answering its siblings.
type siblingMeta struct {
	// Watermark is the run's final rename allocation watermark per file.
	Watermark [2]int
	// PressureFree reports that the run never ticked a register-pressure
	// counter end to end.
	PressureFree bool
	// Model is the run's exception model.
	Model rename.Model
}

// finalMeta is the sibling metadata of spec's finished run on m.
func finalMeta(m *core.Machine, spec Spec) siblingMeta {
	return siblingMeta{
		Watermark:    m.RegWatermarks(),
		PressureFree: m.PressureFreeSoFar(),
		Model:        spec.Model,
	}
}

// servableShared decides whether a finished run with metadata meta may
// answer spec, a sibling of it (the argument is above).
func servableShared(meta siblingMeta, spec Spec) bool {
	if !meta.PressureFree {
		return false
	}
	if spec.Regs < max(meta.Watermark[0], meta.Watermark[1])+2 {
		return false
	}
	return meta.Model == spec.Model || (meta.Model == rename.Precise && spec.Model == rename.Imprecise)
}

// SiblingGroup is the spec without the two dimensions sibling sharing spans
// (register-file size and exception model); Budget and Track stay. It keys
// a group's sources in the suite's result table, and the cluster router
// hashes its fingerprint so that a group's trunk and its siblings meet on
// one worker.
func SiblingGroup(spec Spec) Spec {
	spec.Regs, spec.Model = 0, 0
	return spec
}
