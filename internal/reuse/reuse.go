// Package reuse sizes slices in place and pools the structures they live
// in, so that code filling the same structure again and again (a
// checkpoint's snapshot graph, captured or decoded once per run) stops
// allocating once the structure has grown to its working size.
package reuse

// Slice returns s resized to length n, reusing its backing array when it is
// large enough. A zero length returns nil, so a filled structure compares
// equal to one filled from scratch, whose empty slices are nil. When s must
// grow, its old elements move to the new array, so buffers nested inside
// them (a page's words, a bucket's entries) are kept. Elements past the old
// length hold stale values: the caller overwrites all n.
func Slice[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case n <= cap(s):
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Copy returns a copy of src held in dst's backing array when it is large
// enough; an empty src gives nil, as append([]T(nil), src...) does.
func Copy[T any](dst, src []T) []T {
	dst = Slice(dst, len(src))
	copy(dst, src)
	return dst
}

// OrNew returns p, or a new zero T if p is nil: the struct a filler reuses
// when there is one.
func OrNew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Pool is a bounded free list of *T. Unlike sync.Pool, it keeps its items
// across garbage collections and hands any item to any goroutine, so a
// worker's scratch memory survives until the worker next needs it instead
// of being dropped and grown again. It holds at most the capacity it was
// made with; a Put beyond that drops the item.
type Pool[T any] struct{ free chan *T }

// NewPool returns a pool that keeps up to n items.
func NewPool[T any](n int) *Pool[T] { return &Pool[T]{free: make(chan *T, n)} }

// Get returns a pooled item, or a new zero T if none is free.
func (p *Pool[T]) Get() *T {
	select {
	case x := <-p.free:
		return x
	default:
		return new(T)
	}
}

// Put returns x to the pool. The caller must not use x afterwards.
func (p *Pool[T]) Put(x *T) {
	select {
	case p.free <- x:
	default:
	}
}
