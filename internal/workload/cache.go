package workload

import (
	"sync"

	"secpref/internal/trace"
)

// memo is a concurrent cache that computes each key's value once. The
// value is computed outside the map's lock, so distinct keys compute in
// parallel, and every caller of one key gets the same value.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns k's value, calling compute to make it on first use.
func (c *memo[K, V]) get(k K, compute func() V) V {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = map[K]*memoEntry[V]{}
		}
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// clear drops every entry; a computation in flight finishes for the
// callers already waiting on it.
func (c *memo[K, V]) clear() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// The experiment harness simulates every trace under many
// configurations (secure/non-secure × prefetcher × mode), so generated
// traces are memoized by (name, params).

type cacheKey struct {
	name string
	p    Params
}

var traces memo[cacheKey, *trace.Trace]

// Get returns the (memoized) trace for a registered generator name.
func Get(name string, p Params) (*trace.Trace, error) {
	g, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return traces.get(cacheKey{name, p}, func() *trace.Trace { return g.Gen(p) }), nil
}

// Evict clears the trace and graph caches (tests use it to bound
// memory: a cached 600k-vertex GAP graph holds about 31 MB).
func Evict() {
	traces.clear()
	graphs.clear()
}
