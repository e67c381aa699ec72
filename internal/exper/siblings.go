package exper

import (
	"container/list"
	"sync"

	"regsim/internal/ckpt"
	"regsim/internal/core"
)

// Sibling sharing: a finished run answers the specs that differ from it only
// in register-file size and exception model (its siblings). A run that never
// saw register pressure followed the trajectory every large enough file
// follows, so servableShared — the rule the checkpoint store's shared finals
// use, argued in checkpoint.go — decides which siblings its result answers.
// The suite keeps the pressure-free results of its exact runs in a bounded
// table and consults it before simulating; RunAll schedules each batch
// trunk-first so the sibling that can serve the others usually finishes
// before they start.

// siblingCap bounds the sibling table: at most this many groups, each
// holding at most one cloned result (about 1 KB) per source exception model.
const siblingCap = 1024

// siblingGroup is the table key: the spec without the two dimensions sibling
// sharing spans (the ones finalSharedKey drops). Budget and Track stay.
func siblingGroup(spec Spec) Spec {
	spec.Regs, spec.Model = 0, 0
	return spec
}

// sharedResult is a finished pressure-free run and its servability metadata.
type sharedResult struct {
	res  *core.Result
	meta ckpt.ResultMeta
}

// siblingEntry is one group's stored results, at most one per source model.
type siblingEntry struct {
	group Spec
	srcs  []sharedResult
}

// siblingTable is an LRU over sibling groups, capped at siblingCap. The zero
// value is ready for use, and all methods are safe for concurrent use.
type siblingTable struct {
	mu     sync.Mutex
	lru    list.List // of *siblingEntry, most recently used first
	groups map[Spec]*list.Element
}

// serve returns a copy of a stored result servable to spec, with the
// metadata of the run that produced it.
func (t *siblingTable) serve(spec Spec) (*core.Result, ckpt.ResultMeta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.groups[siblingGroup(spec)]
	if !ok {
		return nil, ckpt.ResultMeta{}, false
	}
	t.lru.MoveToFront(el)
	for _, src := range el.Value.(*siblingEntry).srcs {
		if servableShared(src.meta, spec) {
			return src.res.Clone(), src.meta, true
		}
	}
	return nil, ckpt.ResultMeta{}, false
}

// put records a finished pressure-free run of spec, evicting the least
// recently used group when the table is full. The first result per source
// model is kept: pressure-free trajectories are size-independent, so every
// such run of one model carries the same result and watermarks.
func (t *siblingTable) put(spec Spec, res *core.Result, meta ckpt.ResultMeta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := siblingGroup(spec)
	el, ok := t.groups[g]
	if ok {
		t.lru.MoveToFront(el)
	} else {
		if t.groups == nil {
			t.groups = make(map[Spec]*list.Element)
		}
		if t.lru.Len() >= siblingCap {
			delete(t.groups, t.lru.Remove(t.lru.Back()).(*siblingEntry).group)
		}
		el = t.lru.PushFront(&siblingEntry{group: g})
		t.groups[g] = el
	}
	e := el.Value.(*siblingEntry)
	for _, src := range e.srcs {
		if src.meta.Model == meta.Model {
			return
		}
	}
	e.srcs = append(e.srcs, sharedResult{res: res.Clone(), meta: meta})
}
