// Package lru is the one recency list of the result space: a
// store-less worker's memory cache, the router's result cache and the
// disk store's entry table all keep their access order and running cost here, and
// nowhere else.
//
// Index is the bookkeeping alone. It takes no lock (its owner has one)
// and never evicts: an owner enforces its bound by looping over Oldest
// and Remove, because what eviction means is the owner's business — the
// store deletes a file, spares the key it just wrote and counts the
// victim. Cache is the guarded form the two in-memory caches share.
package lru

import (
	"container/list"
	"iter"
	"sync"
)

// Entry is one element of an Index: its key, what it costs against
// the owner's budget, and the owner's value.
type Entry[V any] struct {
	Key   string
	Cost  int64
	Value V
}

// Index is a recency-ordered table of entries keyed by string. It is
// not safe for concurrent use; the owner serializes access.
type Index[V any] struct {
	order list.List // front = hottest; values are *Entry[V]
	byKey map[string]*list.Element
	cost  int64
}

// NewIndex returns an empty index.
func NewIndex[V any]() *Index[V] {
	return &Index[V]{byKey: make(map[string]*list.Element)}
}

func (x *Index[V]) find(key string, touch bool) (e Entry[V], ok bool) {
	el, ok := x.byKey[key]
	if !ok {
		return e, false
	}
	if touch {
		x.order.MoveToFront(el)
	}
	return *el.Value.(*Entry[V]), true
}

// Get returns key's entry and moves it to the hot end.
func (x *Index[V]) Get(key string) (Entry[V], bool) { return x.find(key, true) }

// Peek returns key's entry without touching its recency.
func (x *Index[V]) Peek(key string) (Entry[V], bool) { return x.find(key, false) }

// Put inserts key at the hot end, replacing any previous entry.
func (x *Index[V]) Put(key string, cost int64, v V) {
	x.Remove(key)
	x.byKey[key] = x.order.PushFront(&Entry[V]{key, cost, v})
	x.cost += cost
}

// Remove drops key and reports whether it was present.
func (x *Index[V]) Remove(key string) bool {
	el, ok := x.byKey[key]
	if ok {
		delete(x.byKey, key)
		x.cost -= x.order.Remove(el).(*Entry[V]).Cost
	}
	return ok
}

// Oldest returns the entry at the cold end — the next eviction victim.
func (x *Index[V]) Oldest() (e Entry[V], ok bool) {
	if el := x.order.Back(); el != nil {
		return *el.Value.(*Entry[V]), true
	}
	return e, false
}

// All iterates the entries hot end first. The index must not be
// modified during the iteration.
func (x *Index[V]) All() iter.Seq[Entry[V]] {
	return func(yield func(Entry[V]) bool) {
		for el := x.order.Front(); el != nil; el = el.Next() {
			if !yield(*el.Value.(*Entry[V])) {
				return
			}
		}
	}
}

// Len returns the number of entries.
func (x *Index[V]) Len() int { return len(x.byKey) }

// Cost returns the sum of the entries' costs.
func (x *Index[V]) Cost() int64 { return x.cost }

// Cache is a mutex-guarded LRU of byte slices: key → body, each body
// costing its length, bounded by total bytes, by entry count, or both,
// evicting from the cold end. Safe for concurrent use; bodies are
// shared with the callers, never copied, so neither side may modify
// one.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	idx        *Index[[]byte]
}

// NewCache returns an empty cache holding at most maxBytes of bodies
// and at most maxEntries entries; a bound <= 0 is not enforced.
func NewCache(maxBytes int64, maxEntries int) *Cache {
	return &Cache{maxBytes: maxBytes, maxEntries: maxEntries, idx: NewIndex[[]byte]()}
}

// Get returns the body cached under key and refreshes its recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.idx.Get(key)
	return e.Value, ok
}

// Put caches body under key at the hot end (replacing any previous
// body) and evicts cold entries until the cache fits its bounds. A
// body that alone exceeds the byte budget is not held at all — and
// neither is what the key held before, which it would have replaced.
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		c.idx.Remove(key)
		return
	}
	c.idx.Put(key, int64(len(body)), body)
	for (c.maxBytes > 0 && c.idx.Cost() > c.maxBytes) || (c.maxEntries > 0 && c.idx.Len() > c.maxEntries) {
		victim, _ := c.idx.Oldest()
		c.idx.Remove(victim.Key)
	}
}

// Remove drops key, if held.
func (c *Cache) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.Remove(key)
}

// Len returns the number of cached bodies.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Len()
}

// Bytes returns the total length of the cached bodies.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Cost()
}

// Keys returns every cached key, most recently used first.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.idx.Len())
	for e := range c.idx.All() {
		keys = append(keys, e.Key)
	}
	return keys
}
