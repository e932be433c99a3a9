package server

import (
	"container/list"
	"sync"
)

// scoreKey addresses one cached scan result: the content's SHA-256 paired
// with the model generation that scored it. Keying on the digest alone would
// serve stale verdicts after a hot reload — same bytes, different weights —
// so the version segments the cache by generation and the swap purges what
// the old generation left behind.
type scoreKey struct {
	version string
	sum     [32]byte
}

// scoreCache is a (version, SHA-256)-keyed LRU over full scan results.
// Clients and load generators replay fixed sample pools, so a small cache
// absorbs a large share of scan traffic before it reaches the batcher.
// Attack-job oracle queries bypass it: their candidates almost never repeat
// (a traced perfbench attack-mix run got 0 hits in 1 236 oracle lookups),
// and a query's result holds only its target's verdict.
type scoreCache struct {
	mu  sync.Mutex
	cap int // immutable after construction
	// front = most recently used
	ll    *list.List                 // guarded by mu
	items map[scoreKey]*list.Element // guarded by mu
}

type cacheEntry struct {
	key scoreKey
	out scanOut
}

// newScoreCache returns a cache holding up to capacity results; capacity
// <= 0 disables caching (every get misses, every put is dropped).
func newScoreCache(capacity int) *scoreCache {
	return &scoreCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[scoreKey]*list.Element),
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *scoreCache) get(key scoreKey) (scanOut, bool) {
	if c.cap <= 0 {
		return scanOut{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return scanOut{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// put inserts (or refreshes) key's result, evicting the least recently used
// entry when the cache is full.
func (c *scoreCache) put(key scoreKey, out scanOut) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, out: out})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// purge empties the cache and reports how many entries were dropped. The
// hot-reload swap calls it so no old-generation result lingers; version-keyed
// lookups would miss those entries anyway, but purging returns the capacity
// to the new generation immediately.
func (c *scoreCache) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[scoreKey]*list.Element)
	return n
}

// len reports the current entry count.
func (c *scoreCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
