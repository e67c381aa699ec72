package verify

import (
	"context"
	"fmt"
	"math/rand"

	"regsim/internal/cache"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

// Property is one metamorphic paper law: a transformation of a base
// configuration along a single axis under which commit IPC must be monotone
// non-decreasing. The laws are the paper's headline results, so a violation
// is a simulator bug, not a finding.
type Property struct {
	// Name identifies the law (test names embed it).
	Name string
	// Law cites the paper result the property encodes.
	Law string
	// Chain maps a base spec to an ordered run of specs, weakest machine
	// first; every adjacent pair is one metamorphic test case.
	Chain func(base exper.Spec) []exper.Spec
}

// Violation is one failed adjacent pair: the minimal configuration pair
// witnessing the broken law (the two specs differ on exactly the property's
// axis, one step apart).
type Violation struct {
	Property         string
	Weaker, Stronger exper.Spec
	WeakerIPC        float64
	StrongerIPC      float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: IPC %.4f at %+v > %.4f at %+v",
		v.Property, v.WeakerIPC, v.Weaker, v.StrongerIPC, v.Stronger)
}

// PaperLaws returns the paper's monotone design-space laws as metamorphic
// properties.
func PaperLaws() []Property {
	return []Property{
		{
			Name: "RegistersMonotone",
			Law:  "IPC is non-decreasing in register-file size (Fig. 6)",
			Chain: func(base exper.Spec) []exper.Spec {
				return axis(base, func(s *exper.Spec, regs int) { s.Regs = regs }, 34, 44, 56, 80)
			},
		},
		{
			Name: "QueueMonotone",
			Law:  "IPC is non-decreasing in dispatch-queue size (Fig. 3)",
			Chain: func(base exper.Spec) []exper.Spec {
				return axis(base, func(s *exper.Spec, q int) { s.Queue = q }, 8, 16, 32, 64)
			},
		},
		{
			Name: "CacheOrdering",
			Law:  "perfect >= lockup-free >= lockup data cache (Fig. 7)",
			Chain: func(base exper.Spec) []exper.Spec {
				return axis(base, func(s *exper.Spec, k cache.Kind) { s.Cache = k },
					cache.Lockup, cache.LockupFree, cache.Perfect)
			},
		},
		{
			Name: "ImpreciseAtLeastPrecise",
			Law:  "imprecise register freeing >= precise at equal resources (Fig. 6)",
			Chain: func(base exper.Spec) []exper.Spec {
				return axis(base, func(s *exper.Spec, m rename.Model) { s.Model = m },
					rename.Precise, rename.Imprecise)
			},
		},
	}
}

// axis builds a chain by sweeping one spec field over values.
func axis[T any](base exper.Spec, set func(*exper.Spec, T), values ...T) []exper.Spec {
	chain := make([]exper.Spec, len(values))
	for i, v := range values {
		s := base
		set(&s, v)
		chain[i] = s
	}
	return chain
}

// Bases derives n deterministic base configurations from a seed: each
// benchmark in turn, with the axes not under test drawn at random from the
// paper's design space. Properties override the axis they sweep.
func Bases(seed int64, n int) []exper.Spec {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	widths := []int{4, 8}
	queues := []int{16, 32, 64}
	regs := []int{48, 64, 80}
	models := []rename.Model{rename.Precise, rename.Imprecise}
	kinds := []cache.Kind{cache.Lockup, cache.LockupFree, cache.Perfect}
	bases := make([]exper.Spec, n)
	for i := range bases {
		bases[i] = exper.Spec{
			Bench: names[i%len(names)],
			Width: widths[rng.Intn(len(widths))],
			Queue: queues[rng.Intn(len(queues))],
			Regs:  regs[rng.Intn(len(regs))],
			Model: models[rng.Intn(len(models))],
			Cache: kinds[rng.Intn(len(kinds))],
		}
	}
	return bases
}

// CheckProperty evaluates one property over the given bases on a suite and
// returns the violations plus the number of adjacent pairs checked. The
// suite's engine dedups specs shared between chains (and between
// properties, when one suite is reused), so the cost is one simulation per
// distinct configuration.
//
// tol is the relative slack allowed before an adjacent inversion counts as
// a violation: the laws hold in expectation over a workload, and a finite
// simulation can show second-order wobbles (a stronger machine speculates
// further down wrong paths, perturbing predictor and cache state), so exact
// monotonicity at every budget is too strict a reading of the paper.
// StrongerIPC < WeakerIPC × (1 − tol) is a violation.
func CheckProperty(s *exper.Suite, prop Property, bases []exper.Spec, tol float64) ([]Violation, int, error) {
	chains := make([][]exper.Spec, len(bases))
	var all []exper.Spec
	for i, base := range bases {
		chains[i] = prop.Chain(base)
		all = append(all, chains[i]...)
	}
	// One batch: dedup across chains, Jobs-wide parallelism.
	results, err := s.RunAll(context.Background(), all)
	if err != nil {
		return nil, 0, fmt.Errorf("verify: property %s: %w", prop.Name, err)
	}
	ipc := make(map[exper.Spec]float64, len(all))
	for i, r := range results {
		ipc[all[i]] = r.CommitIPC()
	}
	var violations []Violation
	pairs := 0
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			weaker, stronger := chain[i-1], chain[i]
			w, st := ipc[weaker], ipc[stronger]
			pairs++
			if st < w*(1-tol) {
				violations = append(violations, Violation{
					Property: prop.Name,
					Weaker:   weaker, Stronger: stronger,
					WeakerIPC: w, StrongerIPC: st,
				})
			}
		}
	}
	return violations, pairs, nil
}
