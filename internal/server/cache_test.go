package server

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

func cacheKey(i int) scoreKey {
	return scoreKey{version: "v1", sum: sha256.Sum256([]byte(fmt.Sprintf("sample-%d", i)))}
}

func cacheOut(i int) scanOut {
	return scanOut{Scores: []float64{float64(i)}, Labels: []bool{i%2 == 0}}
}

func TestScoreCacheEvictsLRU(t *testing.T) {
	c := newScoreCache(3)
	for i := 0; i < 3; i++ {
		c.put(cacheKey(i), cacheOut(i))
	}
	// Touch 0 so 1 becomes the eviction victim.
	if _, ok := c.get(cacheKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.put(cacheKey(3), cacheOut(3))
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	if _, ok := c.get(cacheKey(1)); ok {
		t.Fatal("LRU key 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		out, ok := c.get(cacheKey(i))
		if !ok {
			t.Fatalf("key %d evicted unexpectedly", i)
		}
		if out.Scores[0] != float64(i) {
			t.Fatalf("key %d returned score %v", i, out.Scores[0])
		}
	}
}

func TestScoreCachePutRefreshesExisting(t *testing.T) {
	c := newScoreCache(2)
	c.put(cacheKey(0), cacheOut(0))
	c.put(cacheKey(1), cacheOut(1))
	c.put(cacheKey(0), scanOut{Scores: []float64{99}, Labels: []bool{true}})
	if c.len() != 2 {
		t.Fatalf("len = %d after refresh, want 2", c.len())
	}
	out, ok := c.get(cacheKey(0))
	if !ok || out.Scores[0] != 99 {
		t.Fatalf("refreshed entry = %v ok=%v", out, ok)
	}
	// The refresh moved key 0 to the front, so key 1 is evicted next.
	c.put(cacheKey(2), cacheOut(2))
	if _, ok := c.get(cacheKey(1)); ok {
		t.Fatal("key 1 survived eviction after refresh reordered recency")
	}
}

// Same content, different model generation: the version half of the key
// segments the cache, so a lookup under the new generation can never return
// a score the old weights produced — the stale-score bug a bare SHA-256 key
// had under hot reload.
func TestScoreCacheVersionSegmentsEntries(t *testing.T) {
	c := newScoreCache(8)
	sum := sha256.Sum256([]byte("same-bytes"))
	c.put(scoreKey{version: "set-old", sum: sum}, scanOut{Scores: []float64{0.9}, Labels: []bool{true}})
	if _, ok := c.get(scoreKey{version: "set-new", sum: sum}); ok {
		t.Fatal("new generation hit the old generation's entry for identical content")
	}
	c.put(scoreKey{version: "set-new", sum: sum}, scanOut{Scores: []float64{0.2}, Labels: []bool{false}})
	old, ok := c.get(scoreKey{version: "set-old", sum: sum})
	if !ok || old.Scores[0] != 0.9 {
		t.Fatalf("old generation entry = %v ok=%v, want its own score 0.9", old, ok)
	}
	fresh, ok := c.get(scoreKey{version: "set-new", sum: sum})
	if !ok || fresh.Scores[0] != 0.2 {
		t.Fatalf("new generation entry = %v ok=%v, want 0.2", fresh, ok)
	}
}

func TestScoreCachePurge(t *testing.T) {
	c := newScoreCache(8)
	for i := 0; i < 5; i++ {
		c.put(cacheKey(i), cacheOut(i))
	}
	if n := c.purge(); n != 5 {
		t.Fatalf("purge dropped %d entries, want 5", n)
	}
	if c.len() != 0 {
		t.Fatalf("len = %d after purge, want 0", c.len())
	}
	if _, ok := c.get(cacheKey(0)); ok {
		t.Fatal("entry survived purge")
	}
	// The cache keeps working after a purge.
	c.put(cacheKey(7), cacheOut(7))
	if _, ok := c.get(cacheKey(7)); !ok {
		t.Fatal("cache unusable after purge")
	}
	if n := c.purge(); n != 1 {
		t.Fatalf("second purge dropped %d entries, want 1", n)
	}
}

func TestScoreCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := newScoreCache(capacity)
		c.put(cacheKey(0), cacheOut(0))
		if _, ok := c.get(cacheKey(0)); ok {
			t.Fatalf("capacity %d: cache stored an entry", capacity)
		}
		if c.len() != 0 {
			t.Fatalf("capacity %d: len = %d", capacity, c.len())
		}
	}
}

// TestScoreCacheConcurrentAccess drives get, put and purge from several
// goroutines at once. Under -race it proves that each of them takes the
// cache's lock.
func TestScoreCacheConcurrentAccess(t *testing.T) {
	c := newScoreCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := cacheKey(i % 16)
				c.put(key, cacheOut(i))
				c.get(key)
				if i%50 == 49 {
					c.purge()
				}
			}
		}()
	}
	wg.Wait()
	if n := c.len(); n > 8 {
		t.Fatalf("len = %d, want at most the capacity 8", n)
	}
}
