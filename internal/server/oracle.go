package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mpass/internal/core"
)

// ErrOracleUnavailable is returned once the retry layer's circuit breaker
// opens: enough consecutive queries exhausted their retries that the oracle
// is declared down and the attack fails fast instead of burning its whole
// query budget against a dead scanner.
var ErrOracleUnavailable = errors.New("server: oracle unavailable (circuit open)")

// residentOracle adapts the server's batcher into the hard-label Oracle an
// attack queries. Each query is a one-engine row — only the target scores
// it — and it neither reads nor fills the score cache: a target-only result
// is not a scan result, and attack candidates are rarely queried twice. The
// context-aware path propagates errors and cancellation; the legacy
// context-free path fails closed (detected), since a scanner that cannot
// answer must not look like an evasion.
//
// The target is held by name, not index, and resolved against the generation
// that answered each query: a hot reload may reorder the set mid-attack, and
// a pinned index would silently read some other engine's label. A reload
// that drops the target entirely fails the query instead.
type residentOracle struct {
	s    *Server
	name string
}

func (o *residentOracle) Name() string { return o.name }

// ModelVersion implements core.ModelVersioner: the generation currently
// answering this oracle's queries.
func (o *residentOracle) ModelVersion() string { return o.s.snap().version }

// DetectedContext implements core.ContextOracle. Each query is bounded by
// the server's per-request timeout on top of the job's own deadline, and
// pipeline errors (queue shed, drain, timeout) surface to the caller so the
// retry layer can distinguish transient from fatal.
func (o *residentOracle) DetectedContext(ctx context.Context, raw []byte) (bool, error) {
	o.s.metrics.OracleQueries.Add(1)
	qctx, cancel := context.WithTimeout(ctx, o.s.cfg.RequestTimeout)
	defer cancel()
	// The flush's one snapshot is the generation that answers; the label
	// resolves by name against it, so a reload that reorders the set cannot
	// mislabel and one that drops the target fails the query.
	out, err := o.s.batcher.ScoreWait(qctx, raw, o.name)
	if err != nil {
		return false, err
	}
	idx, ok := out.set.byName[o.name]
	if !ok {
		return false, fmt.Errorf("server: target %q no longer resident (model set %s)", o.name, out.set.version)
	}
	return out.Labels[idx], nil
}

// Detected implements core.Oracle for context-free callers.
func (o *residentOracle) Detected(raw []byte) bool {
	//lint:ignore ctxflow context-free Oracle compatibility path; the serving path queries DetectedContext
	det, err := o.DetectedContext(context.Background(), raw)
	if err != nil {
		return true
	}
	return det
}

// retryOracle sits between the attack's query counter and the (possibly
// fault-injected) resident oracle: transient query errors are retried with
// exponential backoff, and a run of queries that exhaust their retries trips
// a circuit breaker so a dead oracle fails the job promptly. One instance is
// built per attack job and queried from that job's single goroutine, so the
// breaker state needs no locking.
type retryOracle struct {
	inner      core.Oracle
	attempts   int           // total tries per query (>= 1)
	backoff    time.Duration // first retry delay; doubles per retry
	backoffMax time.Duration // backoff ceiling
	breakAfter int           // consecutive exhausted queries before the breaker opens (0 = never)
	metrics    *Metrics

	consecExhausted int
	open            bool
}

func (o *retryOracle) Name() string { return o.inner.Name() }

// UnwrapOracle implements core.OracleUnwrapper, so capability probes (model
// version reporting) reach through the retry layer.
func (o *retryOracle) UnwrapOracle() core.Oracle { return o.inner }

// DetectedContext implements core.ContextOracle with retry semantics.
// Cancellation is never retried: once ctx expires (job deadline, shutdown
// cancel) the query returns immediately with the context's error. A query
// that exhausts its retries while the breaker is still closed fails closed
// — answering "detected" so the attack proceeds conservatively, exactly as
// the pre-retry oracle did — because a single bad query should not kill a
// job that has already spent most of its budget. Only the breaker, fed by
// consecutive exhausted queries, turns oracle failure into job failure.
func (o *retryOracle) DetectedContext(ctx context.Context, raw []byte) (bool, error) {
	if o.open {
		return false, ErrOracleUnavailable
	}
	delay := o.backoff
	var lastErr error
	for attempt := 0; attempt < o.attempts; attempt++ {
		if attempt > 0 {
			o.metrics.OracleRetries.Add(1)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return false, ctx.Err()
			}
			delay *= 2
			if delay > o.backoffMax {
				delay = o.backoffMax
			}
		}
		det, err := core.QueryOracle(ctx, o.inner, raw)
		if err == nil {
			o.consecExhausted = 0
			return det, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The job itself is done (deadline or shutdown), not the oracle.
			return false, err
		}
	}
	o.consecExhausted++
	if o.breakAfter > 0 && o.consecExhausted >= o.breakAfter {
		o.open = true
		o.metrics.OracleBreaks.Add(1)
		return false, fmt.Errorf("%w after %d consecutive failed queries (last: %v)",
			ErrOracleUnavailable, o.consecExhausted, lastErr)
	}
	return true, nil // fail closed; see the method comment
}

// Detected implements core.Oracle for context-free callers, failing closed
// on error like the resident oracle it fronts.
func (o *retryOracle) Detected(raw []byte) bool {
	//lint:ignore ctxflow context-free Oracle compatibility path; the serving path queries DetectedContext
	det, err := o.DetectedContext(context.Background(), raw)
	if err != nil {
		return true
	}
	return det
}
