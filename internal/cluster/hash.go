package cluster

import "sort"

// Rendezvous (highest-random-weight) hashing: every (worker, key) pair gets
// a deterministic pseudo-random score, and a key's preference order is its
// workers sorted by descending score. The properties the router leans on:
//
//   - agreement without coordination: any router instance with the same pool
//     computes the same preference order from the key alone;
//   - minimal disruption: removing a worker reassigns only the keys that
//     ranked it first (~1/n of the keyspace) — every other key keeps its
//     warm worker, which is the whole point of cache-affinity routing;
//   - a full fallback order for free: the second-ranked worker is the
//     spillover/failover target, itself stable across pool changes that
//     don't involve it.
//
// The score is FNV-1a 64 over worker-name ++ NUL ++ key. FNV is not a
// cryptographic hash, but the key side here is already a hex SHA-256
// fingerprint (exper.Fingerprint of the spec's exper.SiblingGroup), so the
// input is uniformly distributed and FNV just has to mix it against the
// worker name cheaply. The NUL separator
// keeps (name, key) framing unambiguous — names are URLs and keys are hex,
// neither contains NUL.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hrwScore returns the rendezvous score of one (worker, key) pair.
func hrwScore(worker, key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(worker); i++ {
		h ^= uint64(worker[i])
		h *= fnvPrime64
	}
	h ^= 0 // the NUL separator
	h *= fnvPrime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// rankByHRW orders workers by descending rendezvous score for key, breaking
// (astronomically unlikely) score ties by name so the order is total and
// deterministic. The input slice is not modified.
func rankByHRW(workers []*worker, key string) []*worker {
	type scored struct {
		w     *worker
		score uint64
	}
	ranked := make([]scored, len(workers))
	for i, w := range workers {
		ranked[i] = scored{w: w, score: hrwScore(w.name, key)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].w.name < ranked[j].w.name
	})
	out := make([]*worker, len(ranked))
	for i := range ranked {
		out[i] = ranked[i].w
	}
	return out
}
