package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnauthenticated rejects a request whose key matches no resident
// tenant (including the missing-key case). The HTTP layer maps it to 401.
var ErrUnauthenticated = errors.New("tenant: unknown or missing API key")

// QuotaError rejects an authenticated request that exceeded its tenant's
// own budget — the bucket ran dry or the in-flight share is full. The
// HTTP layer maps it to 429 with RetryAfter (clamped to whole seconds)
// in the Retry-After header.
type QuotaError struct {
	Tenant     string
	Saturated  bool // in-flight share full, rather than the rate bucket
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	if e.Saturated {
		return fmt.Sprintf("tenant %q has saturated its in-flight share", e.Tenant)
	}
	return fmt.Sprintf("tenant %q is over its request rate", e.Tenant)
}

// entry is one tenant's live admission state. Entries survive allowlist
// reloads (paired by tenant name), so bucket fill, in-flight count, and
// metrics are continuous across key rotations and quota changes.
type entry struct {
	name        string
	bucket      *bucket
	maxInFlight atomic.Int64 // 0 = uncapped; retuned in place on reload
	admin       atomic.Bool  // operator credential; retuned in place on reload
	m           Metrics      // m.InFlight doubles as the share's claim count
}

// tableState is one immutable generation of the table: admission resolves
// it with a single atomic load and never blocks on a concurrent reload.
type tableState struct {
	byKey   map[string]*entry
	entries []*entry // allowlist order, for stable snapshots
}

// Table is the resident allowlist: an atomically swappable key→tenant
// index over state-preserving entries. Build one with LoadTable (file,
// hot-reloadable) or NewTable (fixed list — tests and embedders).
type Table struct {
	path string // "" when built from a literal list; Reload then errors

	// reloadMu serializes Reload; admission reads state without it.
	reloadMu sync.Mutex
	state    atomic.Pointer[tableState]
}

// NewTable builds a table over a fixed, already validated tenant list.
func NewTable(tenants []Tenant, now time.Time) *Table {
	t := &Table{}
	t.install(tenants, now)
	return t
}

// LoadTable reads the allowlist file and builds the table; the path is
// retained for Reload.
func LoadTable(path string) (*Table, error) {
	tenants, err := LoadAllowlist(path)
	if err != nil {
		return nil, err
	}
	t := &Table{path: path}
	t.install(tenants, time.Now())
	return t, nil
}

// Reload re-reads the allowlist file and swaps the table to it, returning
// the new tenant count. Entries for surviving tenants (matched by name)
// keep their bucket fill, in-flight count, and metrics; the bucket is
// retuned in place to the new rate and burst. A load or validation error
// leaves the current table serving untouched.
func (t *Table) Reload() (int, error) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.path == "" {
		return 0, errors.New("tenant: table has no allowlist path to reload")
	}
	tenants, err := LoadAllowlist(t.path)
	if err != nil {
		return 0, err
	}
	t.install(tenants, time.Now())
	return len(tenants), nil
}

// install publishes a new generation, reusing surviving entries by name.
func (t *Table) install(tenants []Tenant, now time.Time) {
	old := t.state.Load()
	prev := map[string]*entry{}
	if old != nil {
		for _, e := range old.entries {
			prev[e.name] = e
		}
	}
	st := &tableState{byKey: make(map[string]*entry, len(tenants))}
	for _, tn := range tenants {
		e, survived := prev[tn.Name]
		if survived {
			e.bucket.reconfigure(tn.RatePerSec, tn.Burst)
		} else {
			e = &entry{name: tn.Name, bucket: newBucket(tn.RatePerSec, tn.Burst, now)}
		}
		e.maxInFlight.Store(int64(tn.MaxInFlight))
		e.admin.Store(tn.Admin)
		st.byKey[tn.Key] = e
		st.entries = append(st.entries, e)
	}
	t.state.Store(st)
}

// Len reports the resident tenant count.
func (t *Table) Len() int { return len(t.state.Load().entries) }

// Lookup authenticates a key without charging any quota — for read-only
// endpoints (job polls, operational reloads) where metering a poll loop
// would burn the budget the tenant needs for its actual work.
func (t *Table) Lookup(key string) (string, bool) {
	if key == "" {
		return "", false
	}
	e, ok := t.state.Load().byKey[key]
	if !ok {
		return "", false
	}
	return e.name, true
}

// IsAdmin reports whether the key authenticates an admin (operator)
// tenant. Like Lookup it charges no quota; unknown keys are never admin.
func (t *Table) IsAdmin(key string) bool {
	if key == "" {
		return false
	}
	e, ok := t.state.Load().byKey[key]
	return ok && e.admin.Load()
}

// Admit authenticates and meters one request. The checks run cheapest
// first and charge nothing on failure: unknown key → ErrUnauthenticated;
// in-flight share full → QuotaError (Saturated); bucket dry → QuotaError
// with the refill wait. On success the returned Grant holds the in-flight
// slot until Release.
func (t *Table) Admit(key string, now time.Time) (*Grant, error) {
	if key == "" {
		return nil, ErrUnauthenticated
	}
	e, ok := t.state.Load().byKey[key]
	if !ok {
		return nil, ErrUnauthenticated
	}
	// Claim the fair-queue share before the bucket: a tenant already
	// filling its slice of the shared queues must not also drain tokens it
	// cannot use.
	if limit := e.maxInFlight.Load(); limit > 0 && e.m.InFlight.Add(1) > limit {
		e.m.InFlight.Add(-1)
		e.m.Saturated.Add(1)
		return nil, &QuotaError{Tenant: e.name, Saturated: true, RetryAfter: time.Second}
	} else if limit <= 0 {
		e.m.InFlight.Add(1)
	}
	if ok, wait := e.bucket.take(now); !ok {
		e.m.InFlight.Add(-1)
		e.m.RateLimited.Add(1)
		return nil, &QuotaError{Tenant: e.name, RetryAfter: wait}
	}
	e.m.Admitted.Add(1)
	return &Grant{e: e}, nil
}

// Grant is one admitted request's claim on its tenant's in-flight share,
// plus the handle the serving layer labels per-tenant metrics through.
type Grant struct {
	e        *entry
	released atomic.Bool
}

// Tenant names the admitted tenant.
func (g *Grant) Tenant() string { return g.e.name }

// Release returns the in-flight slot; safe to call more than once.
func (g *Grant) Release() {
	if g.released.CompareAndSwap(false, true) {
		g.e.m.InFlight.Add(-1)
	}
}

// CountScan attributes one scan to the tenant.
func (g *Grant) CountScan() { g.e.m.Scans.Add(1) }

// CountAttack attributes one admitted attack job to the tenant.
func (g *Grant) CountAttack() { g.e.m.Attacks.Add(1) }

// ObserveScanLatency records one scan's service time in the tenant's
// latency histogram.
func (g *Grant) ObserveScanLatency(d time.Duration) { g.e.m.ScanLatency.Observe(d) }

// Metrics returns every resident tenant's live counter set, keyed by
// tenant name.
func (t *Table) Metrics() map[string]*Metrics {
	st := t.state.Load()
	out := make(map[string]*Metrics, len(st.entries))
	for _, e := range st.entries {
		out[e.name] = &e.m
	}
	return out
}
