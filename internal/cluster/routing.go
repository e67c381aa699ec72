package cluster

import (
	"regsim/internal/exper"
)

// groupKey is a spec's routing key: the fingerprint of its sibling group
// (exper.SiblingGroup, the spec with register-file size and exception model
// cleared). Every spec of a group thus prefers the worker whose sibling
// table holds the group's pressure-free trunk, and since each spec still
// has exactly one preferred worker, repeats keep their result-cache
// affinity too. The spec must already carry server.FinishSpec's defaults:
// "bench only" and "bench plus explicit defaults" must land on the same
// worker, or the affinity the router exists for evaporates on cosmetic spec
// differences.
func groupKey(spec exper.Spec) string {
	return exper.Fingerprint(exper.SiblingGroup(spec))
}

// pick computes the attempt order for one routing key: the policy's
// preference order, re-partitioned so loaded and unhealthy workers sink —
// routable-and-fresh first, then saturated, then degraded (draining), then
// dead as a pure last resort (a "dead" worker may have just restarted, and
// trying it is how it revives when it is all that's left). Workers in
// excluded (they already failed this request) are dropped entirely.
//
// The second return value reports a spillover: the head of the final order
// is not the head of the raw preference order, i.e. the cache-affine
// primary was skipped because of load or health. Callers feed it to the
// spillover counter only when the skip actually redirected a request.
func (rt *Router) pick(key string, excluded map[string]bool) ([]*worker, bool) {
	all := rt.pool.workers()
	candidates := make([]*worker, 0, len(all))
	for _, w := range all {
		if !excluded[w.name] {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return nil, false
	}
	var preferred []*worker
	if rt.cfg.Policy == PolicyRoundRobin {
		// Rotate the pool by a global counter: per-request balance with
		// zero regard for fingerprints (the measurement baseline).
		start := int(rt.rr.Add(1)-1) % len(candidates)
		preferred = make([]*worker, 0, len(candidates))
		for i := range candidates {
			preferred = append(preferred, candidates[(start+i)%len(candidates)])
		}
	} else {
		preferred = rankByHRW(candidates, key)
	}
	var fresh, loaded, degraded, dead []*worker
	for _, w := range preferred {
		switch {
		case w.getState() == stateDead:
			dead = append(dead, w)
		case w.getState() == stateDegraded:
			degraded = append(degraded, w)
		case w.saturated(rt.cfg.SpillThreshold, rt.loadMaxAge):
			loaded = append(loaded, w)
		default:
			fresh = append(fresh, w)
		}
	}
	ordered := make([]*worker, 0, len(preferred))
	ordered = append(ordered, fresh...)
	ordered = append(ordered, loaded...)
	ordered = append(ordered, degraded...)
	ordered = append(ordered, dead...)
	return ordered, ordered[0] != preferred[0]
}
