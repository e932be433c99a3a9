package telemetry

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

type tenantSet struct {
	Scans   Counter   `json:"scans"`
	Latency Histogram `json:"latency"`
}

type doc struct {
	*Inner
	Queued  Counter               `json:"queued"`
	Tenants map[string]*tenantSet `json:"tenants,omitempty"`
	Label   string                `json:"label"` // not a metric: Merge leaves it alone
}

type Inner struct {
	Hits    Counter   `json:"hits"`
	Largest Max       `json:"largest"`
	Latency Histogram `json:"latency"`
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireShape pins each kind's JSON form and the round trip through it.
func TestWireShape(t *testing.T) {
	d := &doc{Inner: &Inner{}, Label: "x"}
	d.Hits.Add(3)
	d.Largest.Observe(7)
	d.Largest.Observe(5)
	d.Queued.Store(2)
	d.Latency.Observe(200 * time.Microsecond)
	d.Latency.Observe(3 * time.Second)
	got := marshal(t, d)
	const want = `{"hits":3,"largest":7,"latency":{"count":2,"mean_ms":1500.1,` +
		`"buckets_ms":[0.1,0.25,0.5,1,2.5,5,10,25,50,100,250,500,1000,-1],` +
		`"counts":[0,1,0,0,0,0,0,0,0,0,0,0,0,1]},"queued":2,"label":"x"}`
	if got != want {
		t.Fatalf("marshal:\n got %s\nwant %s", got, want)
	}
	var back doc
	if err := json.Unmarshal([]byte(got), &back); err != nil {
		t.Fatal(err)
	}
	if again := marshal(t, &back); again != got {
		t.Fatalf("round trip changed the document:\n got %s\nwant %s", again, got)
	}
	if err := json.Unmarshal([]byte(`{"count":1,"mean_ms":1,"buckets_ms":[1,-1],"counts":[0,1]}`), &back.Latency); err == nil {
		t.Fatal("decoded a histogram with a foreign bucket layout")
	}
}

// TestBucketEdges: a duration equal to a bound lands in that bound's
// bucket; anything above the last bound lands in +Inf.
func TestBucketEdges(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(100 * time.Microsecond)
	h.Observe(100*time.Microsecond + 1)
	h.Observe(time.Second)
	h.Observe(time.Hour)
	want := [len(bounds) + 1]int64{0: 2, 1: 1, len(bounds) - 1: 1, len(bounds): 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
}

// TestMeanSurvivesDecode: the decoded nanosecond sum reproduces the
// original mean bit for bit, so a replica document echoed by the gateway
// is unchanged.
func TestMeanSurvivesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var h Histogram
		for j := rng.Intn(50); j >= 0; j-- {
			h.Observe(time.Duration(rng.Int63n(int64(2 * time.Second))))
		}
		orig := marshal(t, &h)
		var back Histogram
		if err := json.Unmarshal([]byte(orig), &back); err != nil {
			t.Fatal(err)
		}
		if got := marshal(t, &back); got != orig {
			t.Fatalf("re-marshal drifted:\n got %s\nwant %s", got, orig)
		}
	}
}

// TestMergePolicy: counters sum, maxes take the max, histograms merge
// bucket by bucket with the mean from the merged sums; pointers and maps
// are allocated on demand, empty sources leave them nil, and non-metric
// fields are untouched.
func TestMergePolicy(t *testing.T) {
	a := &doc{Inner: &Inner{}, Tenants: map[string]*tenantSet{"t1": {}}}
	a.Hits.Add(2)
	a.Largest.Observe(9)
	a.Queued.Store(1)
	a.Latency.Observe(time.Millisecond)
	a.Tenants["t1"].Scans.Add(4)
	a.Tenants["t1"].Latency.Observe(time.Millisecond)
	b := &doc{Inner: &Inner{}, Tenants: map[string]*tenantSet{"t1": {}, "t2": {}}, Label: "b"}
	b.Hits.Add(5)
	b.Largest.Observe(3)
	b.Queued.Store(2)
	b.Latency.Observe(3 * time.Millisecond)
	b.Tenants["t1"].Scans.Add(1)
	b.Tenants["t2"].Scans.Add(6)

	var sum doc
	Merge(&sum, a)
	Merge(&sum, b)
	if sum.Hits.Load() != 7 || sum.Largest.Load() != 9 || sum.Queued.Load() != 3 {
		t.Fatalf("hits=%d largest=%d queued=%d, want 7/9/3", sum.Hits.Load(), sum.Largest.Load(), sum.Queued.Load())
	}
	if sum.Label != "" {
		t.Fatalf("Merge copied a non-metric field: %q", sum.Label)
	}
	if sum.Tenants["t1"].Scans.Load() != 5 || sum.Tenants["t2"].Scans.Load() != 6 {
		t.Fatalf("tenant scans t1=%d t2=%d, want 5/6", sum.Tenants["t1"].Scans.Load(), sum.Tenants["t2"].Scans.Load())
	}
	if got := marshal(t, &sum.Latency); !strings.Contains(got, `"count":2,"mean_ms":2,`) ||
		!strings.Contains(got, `"counts":[0,0,0,1,0,1,0,0,0,0,0,0,0,0]`) {
		t.Fatalf("merged histogram = %s", got)
	}
	// The sources are read, never written.
	if a.Hits.Load() != 2 || b.Tenants["t2"].Latency.Count() != 0 {
		t.Fatal("Merge modified a source")
	}

	var empty doc
	Merge(&empty, &doc{})
	if empty.Inner != nil || empty.Tenants != nil {
		t.Fatal("merging an empty source allocated on the destination")
	}
}

// TestConcurrentUpdatesAgainstReads races the hot-path writers against
// /metrics-style readers — marshal and merge — under `make race`, then
// checks that no update was lost.
func TestConcurrentUpdatesAgainstReads(t *testing.T) {
	live := &doc{Inner: &Inner{}, Tenants: map[string]*tenantSet{"t": {}}}
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				live.Hits.Add(1)
				live.Largest.Observe(int64(w*perWriter + i))
				live.Latency.Observe(time.Duration(i) * time.Microsecond)
				live.Tenants["t"].Scans.Add(1)
				live.Tenants["t"].Latency.Observe(time.Millisecond)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var snap doc
				Merge(&snap, live)
				if _, err := json.Marshal(live); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var snap doc
	Merge(&snap, live)
	const n = writers * perWriter
	if snap.Hits.Load() != n || snap.Latency.Count() != n || snap.Tenants["t"].Scans.Load() != n {
		t.Fatalf("lost updates: hits=%d latency=%d tenant=%d, want %d",
			snap.Hits.Load(), snap.Latency.Count(), snap.Tenants["t"].Scans.Load(), n)
	}
	if snap.Largest.Load() != n-1 {
		t.Fatalf("largest = %d, want %d", snap.Largest.Load(), n-1)
	}
}

// TestZeroAllocHotPath: the per-request operations allocate nothing.
func TestZeroAllocHotPath(t *testing.T) {
	var c Counter
	var m Max
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		m.Observe(c.Load())
		h.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %v times per run", allocs)
	}
}
