package exper

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"regsim/internal/core"
)

// tableBytes bounds the suite's result table. A whole `paper all` run keeps
// about 15 MiB of answers whatever its budget (a histogram is sized by its
// register file, not by the run), so only traffic no figure makes evicts,
// such as a flood of distinct tracked specs with large register files.
const tableBytes = 64 << 20

// resultTable is the suite's one in-memory store: an LRU over the answer
// simulate returned for each spec, within tableBytes of results in all. An
// answer from a pressure-free run is also a source for its siblings
// (siblings.go), indexed by SiblingGroup. The zero value is ready for use,
// and all methods are safe for concurrent use.
type resultTable struct {
	mu      sync.Mutex
	lru     list.List // of *tableEntry, most recently used first
	entries map[Spec]*list.Element
	groups  map[Spec][]*list.Element // a group's sources, at most one per model
	bytes   int64

	hits    atomic.Int64 // specs answered by get
	evicted atomic.Int64 // entries dropped to stay within tableBytes
}

type tableEntry struct {
	spec  Spec
	res   *core.Result
	meta  siblingMeta // PressureFree marks a source for spec's siblings
	bytes int64
}

// resultBytes charges a Result's fixed part plus 8 bytes per histogram element.
func resultBytes(res *core.Result) int64 {
	n := int64(unsafe.Sizeof(*res))
	for f := range res.Live {
		for _, h := range res.Live[f].Cum {
			n += 8 * int64(len(h))
		}
		n += 8 * int64(len(res.Ports[f].Reads)+len(res.Ports[f].Writes))
	}
	return n
}

// get returns spec's answer, counting the hit.
func (t *resultTable) get(spec Spec) (*core.Result, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[spec]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(el)
	t.hits.Add(1)
	return el.Value.(*tableEntry).res, true
}

// serve returns a copy of a source's result servable to spec, with the
// source's metadata.
func (t *resultTable) serve(spec Spec) (*core.Result, siblingMeta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, el := range t.groups[SiblingGroup(spec)] {
		if e := el.Value.(*tableEntry); servableShared(e.meta, spec) {
			t.lru.MoveToFront(el)
			return e.res.Clone(), e.meta, true
		}
	}
	return nil, siblingMeta{}, false
}

// put records res as spec's answer; with meta.PressureFree it also becomes a
// source for spec's siblings unless the group has one of its model already
// (pressure-free trajectories are size-independent, so all such runs of one
// model carry the same result and watermarks). An answer already recorded
// stays, so the callers of one spec all get one Result. Least recently used
// entries then go until the table is within its bound.
func (t *resultTable) put(spec Spec, res *core.Result, meta siblingMeta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[spec]; ok {
		return
	}
	if t.entries == nil {
		t.entries = make(map[Spec]*list.Element)
		t.groups = make(map[Spec][]*list.Element)
	}
	e := &tableEntry{spec: spec, res: res, meta: meta, bytes: resultBytes(res)}
	el := t.lru.PushFront(e)
	t.entries[spec] = el
	g := SiblingGroup(spec)
	if meta.PressureFree && !slices.ContainsFunc(t.groups[g], func(src *list.Element) bool {
		return src.Value.(*tableEntry).meta.Model == meta.Model
	}) {
		t.groups[g] = append(t.groups[g], el)
	}
	t.bytes += e.bytes
	for t.bytes > tableBytes {
		back := t.lru.Back()
		old := t.lru.Remove(back).(*tableEntry)
		delete(t.entries, old.spec)
		t.bytes -= old.bytes
		t.evicted.Add(1)
		if old.meta.PressureFree {
			g := SiblingGroup(old.spec)
			t.groups[g] = slices.DeleteFunc(t.groups[g], func(src *list.Element) bool { return src == back })
			if len(t.groups[g]) == 0 {
				delete(t.groups, g)
			}
		}
	}
}
