// Package lru is the one byte-bounded LRU map behind SeeDB's two
// caches — the service layer's view-result cache and the engine's
// partial store. It holds no lock and no hit/miss policy: the owner
// calls it under its own mutex and decides what a lookup means.
package lru

import "container/list"

// Cache maps string keys to values, each charged a caller-supplied
// size, and evicts from the least-recently-used end while the total
// exceeds the budget. Not safe for concurrent use.
type Cache[V any] struct {
	maxBytes  int64
	bytes     int64
	evictions int64
	order     *list.List // of *entry[V]; front = most recently used
	byKey     map[string]*list.Element
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// New builds an empty cache bounded to maxBytes.
func New[V any](maxBytes int64) *Cache[V] {
	return &Cache[V]{maxBytes: maxBytes, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key, replacing any previous value, then evicts
// least-recently-used entries until the budget holds again. The entry
// just stored is never evicted: refusing an oversized value would make
// the largest — most expensive — results permanently uncacheable.
func (c *Cache[V]) Put(key string, val V, size int64) {
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&entry[V]{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		victim := c.order.Remove(c.order.Back()).(*entry[V])
		delete(c.byKey, victim.key)
		c.bytes -= victim.size
		c.evictions++
	}
}

// Purge drops every entry; the eviction count is kept.
func (c *Cache[V]) Purge() {
	c.order.Init()
	clear(c.byKey)
	c.bytes = 0
}

// Len returns the number of entries resident.
func (c *Cache[V]) Len() int { return len(c.byKey) }

// Bytes returns the summed size of the resident entries.
func (c *Cache[V]) Bytes() int64 { return c.bytes }

// Evictions returns how many entries were dropped to stay under the
// budget since the cache was built.
func (c *Cache[V]) Evictions() int64 { return c.evictions }
