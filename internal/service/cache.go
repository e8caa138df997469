// Package service is SeeDB's recommendation service layer: the piece
// of the paper's middleware architecture (Figure 4) that sits between
// many concurrent analysts and the backend. It provides
//
//   - a content-addressed, size-bounded LRU cache of per-exec-unit
//     aggregation results, keyed by (table fingerprint, view/grouping
//     signature, predicate signature, sample phase) — so the
//     comparison-side queries (identical across every request against
//     the same table) and repeated target queries skip the scan, and
//   - a concurrent session manager with per-session options, so
//     interactive front-ends can hold long-lived exploration sessions
//     that share cached work.
//
// Concurrent identical misses are de-duplicated (singleflight): only
// one goroutine scans, the rest wait for its result. Invalidation is
// implicit — table fingerprints change on mutation or reload, so stale
// entries become unreachable and are evicted by the LRU policy.
//
// The cache interface (core.ExecCache) is the seam where remote or
// partitioned executors can plug in later: anything able to answer
// "results for this content address" can stand in for a local scan.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"seedb/internal/engine"
	"seedb/internal/lru"
	"seedb/internal/obs"
)

// CacheStats is a point-in-time snapshot of cache effectiveness
// counters.
type CacheStats struct {
	// Hits counts lookups answered from memory.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to compute (one scan each).
	Misses int64 `json:"misses"`
	// Shared counts lookups that piggybacked on a concurrent identical
	// miss (singleflight de-duplication): no scan and no stored copy.
	Shared int64 `json:"shared"`
	// Evictions counts entries dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the current cache contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// inflight tracks one in-progress compute so concurrent identical
// misses can wait for it instead of scanning again.
type inflight struct {
	done      chan struct{}
	results   []*engine.Result
	cacheable bool
	err       error
}

// ViewCache is a size-bounded LRU cache of exec-unit results with
// singleflight de-duplication. It implements core.ExecCache. All
// methods are safe for concurrent use.
type ViewCache struct {
	mu      sync.Mutex
	entries *lru.Cache[[]*engine.Result]
	flights map[string]*inflight

	hits   atomic.Int64
	misses atomic.Int64
	shared atomic.Int64
}

// NewViewCache builds a cache bounded to maxBytes of estimated result
// payload (<= 0 selects the 64 MiB default).
func NewViewCache(maxBytes int64) *ViewCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &ViewCache{
		entries: lru.New[[]*engine.Result](maxBytes),
		flights: make(map[string]*inflight),
	}
}

// GetOrCompute implements core.ExecCache: return the cached results
// for key, join an in-flight computation of the same key, or compute
// and store. Errors are returned but never cached — a failed scan is
// retried by the next caller — and results compute reports as
// non-cacheable are served to the flight but never stored. A leader
// whose own context is cancelled mid-scan must not poison its
// waiters: compute closures run under their caller's context, so a
// waiter whose context is still live takes over and computes with its
// own.
func (c *ViewCache) GetOrCompute(ctx context.Context, key string, compute func() (results []*engine.Result, cacheable bool, err error)) ([]*engine.Result, error) {
	// One observation span per logical lookup; its outcome attribute
	// mirrors exactly the counter the lookup lands in. No-op when the
	// run carries no trace.
	span := obs.TraceFrom(ctx).StartSpan("cache-lookup")
	fin := func(outcome string) {
		span.SetAttr("outcome", outcome).Finish()
	}
	for {
		c.mu.Lock()
		if results, ok := c.entries.Get(key); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			fin("hit")
			return results, nil
		}
		fl, joined := c.flights[key]
		if !joined {
			fl = &inflight{done: make(chan struct{})}
			c.flights[key] = fl
		}
		c.mu.Unlock()

		if joined {
			c.shared.Add(1)
			select {
			case <-fl.done:
				if fl.err != nil && ctx.Err() == nil && isContextErr(fl.err) {
					// The leader died of its own cancellation and this
					// waiter takes over: the lookup was not a piggyback
					// after all. Undo the Shared count so the retry's
					// Miss (or Hit) is the lookup's one recorded outcome
					// — otherwise a single logical lookup counts as both
					// Shared and Miss and the /api/stats hit rate skews.
					c.shared.Add(-1)
					continue
				}
				fin("shared")
				return fl.results, fl.err
			case <-ctx.Done():
				fin("cancelled")
				return nil, ctx.Err()
			}
		}

		c.misses.Add(1)
		fl.results, fl.cacheable, fl.err = func() (r []*engine.Result, ok bool, e error) {
			// A panicking compute must not wedge the key: fail the
			// flight for waiters, unregister it, then let the panic
			// continue up the leader's stack.
			defer func() {
				if p := recover(); p != nil {
					fl.err = fmt.Errorf("service: view computation panicked: %v", p)
					close(fl.done)
					c.mu.Lock()
					delete(c.flights, key)
					c.mu.Unlock()
					panic(p)
				}
			}()
			return compute()
		}()
		close(fl.done)

		c.mu.Lock()
		delete(c.flights, key)
		if fl.err == nil && fl.cacheable {
			c.entries.Put(key, fl.results, entrySize(key, fl.results))
		}
		c.mu.Unlock()
		fin("miss")
		return fl.results, fl.err
	}
}

// isContextErr reports whether err stems from a cancelled or expired
// context (possibly wrapped by the engine's scan-cancelled error).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Purge drops every entry (in-flight computations are unaffected).
func (c *ViewCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Purge()
}

// Stats snapshots the effectiveness counters.
func (c *ViewCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.entries.Evictions(),
		Entries:   c.entries.Len(),
		Bytes:     c.entries.Bytes(),
	}
}

// cacheEntryOverhead approximates the per-entry bookkeeping heap that
// is not part of the result payload: the LRU's entry struct, its
// list.Element, and the key-map bucket share. Without it (and the key
// bytes) a cache full of small results held far more real heap than
// the budget admitted to.
const cacheEntryOverhead = 160

// entrySize is the budget charge for one stored entry: the key string
// (exec-cache keys are long content-address digests), the per-entry
// bookkeeping constant, and the estimated result payload.
func entrySize(key string, results []*engine.Result) int64 {
	return int64(len(key)) + cacheEntryOverhead + resultsSize(results)
}

// resultsSize estimates the heap footprint of a result set. Group-by
// results are small (one row per group), so a per-value constant plus
// string payload is accurate enough for budget accounting.
func resultsSize(results []*engine.Result) int64 {
	const valueSize = 48 // sizeof(engine.Value) + slice overhead share
	var n int64
	for _, r := range results {
		for _, col := range r.Columns {
			n += int64(len(col)) + 16
		}
		for _, row := range r.Rows {
			n += int64(len(row)) * valueSize
			for _, v := range row {
				n += int64(len(v.S))
			}
		}
		n += 64 // Result struct + headers
	}
	return n
}
