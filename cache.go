package pynamic

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/api"
)

// workloadSchema labels the workload-cache keyspace within the shared
// api.ContentHash function (the same function behind runner.CacheKey
// and Spec.Hash).
const workloadSchema = "pynamic-workload-v1"

// workloadKey is the content hash of a generator configuration: the
// shared content hash over its canonical JSON (Config holds only value
// fields, so encoding/json's declaration-order struct encoding is
// canonical). MaxCallDepth is normalized first so the zero value and
// the explicit default land on the same entry, exactly as pygen treats
// them. Spec hashing folds this same key in for its workload section,
// which is why two specs that resolve to the same workload share both
// a spec hash component and a workload-cache entry.
func workloadKey(cfg Config) string {
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 10
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain value struct; this cannot happen.
		panic(fmt.Sprintf("pynamic: workload config not hashable: %v", err))
	}
	return api.ContentHash(workloadSchema, string(b))
}

// cacheEntry is one cached (possibly in-flight) generation. ready is
// closed when w/err are final, so concurrent requests for the same
// configuration wait for the first generation instead of duplicating
// it.
type cacheEntry struct {
	ready chan struct{}
	w     *Workload
	err   error
}

// workloadCache is the Engine's content-keyed workload cache: repeated
// GenerateCtx calls (and everything built on them — runs, jobs, table
// experiments, serve requests) over the same Config share one
// generated *Workload. Workloads are immutable by contract, so sharing
// is safe; eviction is LRU over at most cap entries. State derived from
// a workload, such as the job engine's shared symbol index, is kept on
// the workload itself (pygen.Derived), so an evicted entry takes it
// along once no running job still holds the workload.
type workloadCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   []string // LRU order: least recently used first
	hits    int
	misses  int
}

// newWorkloadCache returns a cache holding up to cap workloads; cap 0
// returns nil (caching disabled — getOrGenerate on a nil cache always
// generates).
func newWorkloadCache(cap int) *workloadCache {
	if cap <= 0 {
		return nil
	}
	return &workloadCache{cap: cap, entries: make(map[string]*cacheEntry)}
}

// getOrGenerate returns the workload for key, generating it with gen
// on a miss. The second result reports whether the value was served
// from the cache (true also for waiters that joined an in-flight
// generation). Failed generations are removed so a later call can
// retry; a canceled waiter returns ErrCanceled without disturbing the
// in-flight generation. Crucially, a waiter never inherits another
// caller's failure: the in-flight generation runs under the
// *originator's* context, so if that caller cancels, waiters whose own
// contexts are still live drop the poisoned entry and regenerate.
func (c *workloadCache) getOrGenerate(ctx context.Context, key string,
	gen func() (*Workload, error)) (*Workload, bool, error) {
	if c == nil {
		w, err := gen()
		return w, false, err
	}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			// Deliberately not counted as a hit yet: a waiter that is
			// canceled, or that observes the originator's failure and
			// retries, never received a workload from the cache. The
			// hit is recorded only on the successful return below.
			c.touchLocked(key)
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, api.ErrCanceled
			}
			if e.err != nil {
				// The originator's generation failed — possibly only
				// because ITS context was canceled. Drop the entry (the
				// originator may already have) and retry under our own
				// context rather than propagating a stranger's failure.
				c.mu.Lock()
				if c.entries[key] == e {
					delete(c.entries, key)
					c.removeLocked(key)
				}
				c.mu.Unlock()
				if err := api.Checkpoint(ctx); err != nil {
					return nil, false, err
				}
				continue
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return e.w, true, nil
		}
		c.misses++
		e := &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.evictLocked()
		c.mu.Unlock()

		e.w, e.err = gen()
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
				c.removeLocked(key)
			}
			c.mu.Unlock()
			return nil, false, e.err
		}
		return e.w, false, nil
	}
}

// touchLocked moves key to the most-recently-used end.
func (c *workloadCache) touchLocked(key string) {
	c.removeLocked(key)
	c.order = append(c.order, key)
}

func (c *workloadCache) removeLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recently-used entries until the cache fits
// its capacity. Evicted in-flight entries finish generating for their
// waiters; they just stop being findable.
func (c *workloadCache) evictLocked() {
	for len(c.entries) > c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
}

// stats returns a snapshot of the cache counters.
func (c *workloadCache) stats() WorkloadCacheStats {
	if c == nil {
		return WorkloadCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return WorkloadCacheStats{
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  len(c.entries),
		Capacity: c.cap,
	}
}

// WorkloadCacheStats is a snapshot of an Engine's workload-cache
// counters (see Engine.WorkloadCacheStats).
type WorkloadCacheStats struct {
	// Hits counts GenerateCtx calls that actually received a workload
	// from the cache, including waiters that joined an in-flight
	// generation and got its result. Canceled waiters and waiters
	// that observed a failed generation are not hits.
	Hits int
	// Misses counts calls that had to generate.
	Misses int
	// Entries is the current number of cached workloads; Capacity the
	// configured maximum (0 = caching disabled).
	Entries  int
	Capacity int
}
