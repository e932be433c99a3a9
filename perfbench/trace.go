package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
	"mpass/internal/server"
	"mpass/internal/tensor"
)

// The traced run records spans from wrappers around the stack's public
// interfaces; nothing inside the program is instrumented. Spans are kept in
// memory while the timed phase runs and written out when it ends.

type spanKind uint8

const (
	spanClient      spanKind = iota // client request, start to body read
	spanClientSend                  // client: start to request written
	spanClientRecv                  // client: first response byte to body read
	spanGatewayConn                 // gateway conn: request bytes arrive to response written
	spanGatewayHTTP                 // gateway http.Handler
	spanReplicaRT                   // gateway Transport round trip to a replica, through body close
	spanServerConn                  // replica conn: request bytes arrive to response written
	spanServerHTTP                  // replica http.Handler
	spanScoreBatch                  // engine.Driver.ScoreBatch; id = flush, eng = set index, n = len(raws)
	spanGradient                    // detect.GradientModel.InputGradient
	spanOracle                      // core.Oracle query handed to the attack; key = content hash
	spanAttack                      // server.AttackFunc; key = jobKey(target, original)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client", "client.send", "client.recv", "gateway.conn", "gateway.http",
	"gateway.replica_rt", "server.conn", "server.http", "engine.score_batch",
	"core.gradient", "core.oracle", "server.attack_func",
}

type span struct {
	kind       spanKind
	eng        int8
	n          int32
	id         int64
	start, end int64
	key        uint64
}

func (s span) ival() ival { return ival{s.start, s.end} }

// member records that a body with content hash key was scored in a flush.
type member struct {
	flush int64
	key   uint64
}

// recorder collects spans while on is set. The untraced run has no
// recorder: its stack is built without any wrapper.
type recorder struct {
	base time.Time
	seed maphash.Seed
	on   atomic.Bool

	mu      sync.Mutex
	spans   []span   //mpass:guardedby mu
	members []member //mpass:guardedby mu
	flushes atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), seed: maphash.MakeSeed()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) hash(b []byte) uint64 { return maphash.Bytes(r.seed, b) }

// jobKey identifies an attack job's (target, sample) pair.
func (r *recorder) jobKey(target string, original []byte) uint64 {
	return r.hash(original) ^ maphash.String(r.seed, target)
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addMembers(flush int64, raws [][]byte) {
	if !r.on.Load() {
		return
	}
	keys := make([]member, len(raws))
	for i, raw := range raws {
		keys[i] = member{flush: flush, key: r.hash(raw)}
	}
	r.mu.Lock()
	r.members = append(r.members, keys...)
	r.mu.Unlock()
}

// snapshot returns the spans and flush members recorded so far. Callers
// read them after recording stops; later appends land beyond their length.
func (r *recorder) snapshot() ([]span, []member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[:len(r.spans):len(r.spans)], r.members[:len(r.members):len(r.members)]
}

// write dumps every span as TSV: kind, id, start_ns, end_ns, n, engine.
func (r *recorder) write(path string) error {
	spans, _ := r.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tid\tstart_ns\tend_ns\tn\tengine")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.id, s.start, s.end, s.n, s.eng)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchID is the query parameter the traced client tags scans with. The
// gateway forwards the raw query to the replica, so one id follows a
// request across both tiers.
const benchID = "bid"

func requestID(rawQuery string) int64 {
	v, ok := strings.CutPrefix(rawQuery, benchID+"=")
	if !ok {
		return 0
	}
	id, _ := strconv.ParseInt(v, 10, 64)
	return id
}

// --- HTTP tier wrappers ---

type connKey struct{}

// tracedListener hands out tracedConns so the conn-level span of each
// request (first request byte read to response written) is recorded.
type tracedListener struct {
	net.Listener
	rec  *recorder
	kind spanKind
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, kind: l.kind, idle: true}, nil
}

// tracedConn marks a request's arrival at the first read that returns data
// after the previous response was written. Go's HTTP/1.1 client does not
// pipeline, so each conn carries one request at a time.
type tracedConn struct {
	net.Conn
	rec  *recorder
	kind spanKind

	mu      sync.Mutex
	idle    bool  //mpass:guardedby mu
	arrival int64 //mpass:guardedby mu
	id      int64 //mpass:guardedby mu — request being served, set by the handler
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.rec.now()
		c.mu.Lock()
		if c.idle {
			c.arrival, c.idle = t, false
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	t := c.rec.now()
	c.mu.Lock()
	id, arrival := c.id, c.arrival
	c.id, c.idle = 0, true
	c.mu.Unlock()
	if id != 0 {
		c.rec.add(span{kind: c.kind, id: id, start: arrival, end: t})
	}
	return n, err
}

// connContext stores the tracedConn in each request's context
// (http.Server.ConnContext).
func connContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connKey{}, c)
}

// tracedHandler records the http.Handler span of every tagged request.
func tracedHandler(rec *recorder, kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r.URL.RawQuery)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		if c, ok := r.Context().Value(connKey{}).(*tracedConn); ok {
			c.mu.Lock()
			c.id = id
			c.mu.Unlock()
		}
		start := rec.now()
		h.ServeHTTP(w, r)
		rec.add(span{kind: kind, id: id, start: start, end: rec.now()})
	})
}

// tracedTransport is the gateway's replica-facing RoundTripper: the span
// runs from the forward until the gateway closes the relayed body.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := requestID(req.URL.RawQuery)
	start := t.rec.now()
	resp, err := t.inner.RoundTrip(req)
	if id == 0 {
		return resp, err
	}
	if err != nil {
		t.rec.add(span{kind: spanReplicaRT, id: id, start: start, end: t.rec.now()})
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: span{kind: spanReplicaRT, id: id, start: start}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// --- engine and attack wrappers ---

// tracedDriver records every ScoreBatch call. Name, Score, Label, Version
// and Health promote from the wrapped driver, so the set digest is
// unchanged; Unwrap keeps the streaming and quantization probes reaching
// the same detector.
type tracedDriver struct {
	engine.Driver
	rec   *recorder
	index int8
	flush *atomic.Int64 // shared by the set: the flush engine 0 opened
	thr   detect.Thresholder
}

func (d *tracedDriver) ScoreBatch(raws [][]byte) []float64 {
	if d.index == 0 {
		f := d.rec.flushes.Add(1)
		d.flush.Store(f)
		d.rec.addMembers(f, raws)
	}
	start := d.rec.now()
	scores := d.Driver.ScoreBatch(raws)
	d.rec.add(span{kind: spanScoreBatch, eng: d.index, n: int32(len(raws)), id: d.flush.Load(), start: start, end: d.rec.now()})
	return scores
}

func (d *tracedDriver) DecisionThreshold() float64 { return d.thr.DecisionThreshold() }

func (d *tracedDriver) Unwrap() detect.Detector {
	if u, ok := d.Driver.(engine.Unwrapper); ok {
		return u.Unwrap()
	}
	return d.Driver
}

// tracedGradDriver adds the gradient capability for the engines that have
// it, so engine.GradientModels picks the traced wrapper for the MPass
// known-model ensemble and every InputGradient call is recorded.
type tracedGradDriver struct {
	*tracedDriver
	g detect.GradientModel
}

func (d *tracedGradDriver) InputGradient(raw []byte, target float64) *nn.InputGrad {
	start := d.rec.now()
	ig := d.g.InputGradient(raw, target)
	d.rec.add(span{kind: spanGradient, eng: d.index, start: start, end: d.rec.now()})
	return ig
}

func (d *tracedGradDriver) EmbedRow(b byte) tensor.Vec { return d.g.EmbedRow(b) }
func (d *tracedGradDriver) EmbedMatrix() *tensor.Mat   { return d.g.EmbedMatrix() }
func (d *tracedGradDriver) SeqLen() int                { return d.g.SeqLen() }
func (d *tracedGradDriver) EmbedDim() int              { return d.g.EmbedDim() }

// wrapSet returns set with every driver traced, in the same order.
func wrapSet(set *engine.Set, rec *recorder) (*engine.Set, error) {
	flush := new(atomic.Int64)
	drivers := make([]engine.Driver, set.Len())
	for i, d := range set.Drivers() {
		thr, ok := d.(detect.Thresholder)
		if !ok {
			return nil, fmt.Errorf("engine %s has no decision threshold", d.Name())
		}
		td := &tracedDriver{Driver: d, rec: rec, index: int8(i), flush: flush, thr: thr}
		drivers[i] = td
		if g, ok := engine.GradientOf(d); ok {
			drivers[i] = &tracedGradDriver{tracedDriver: td, g: g}
		}
	}
	return engine.NewSet(drivers...)
}

// tracedOracle records each query the attack makes. UnwrapOracle keeps the
// model-version probe reaching the resident oracle.
type tracedOracle struct {
	core.Oracle
	rec *recorder
}

func (o *tracedOracle) UnwrapOracle() core.Oracle { return o.Oracle }

func (o *tracedOracle) DetectedContext(ctx context.Context, raw []byte) (bool, error) {
	start := o.rec.now()
	det, err := core.QueryOracle(ctx, o.Oracle, raw)
	end := o.rec.now()
	o.rec.add(span{kind: spanOracle, key: o.rec.hash(raw), start: start, end: end})
	return det, err
}

func (o *tracedOracle) Detected(raw []byte) bool {
	det, err := o.DetectedContext(context.Background(), raw)
	if err != nil {
		return true
	}
	return det
}

// tracedAttack wraps an AttackFunc: the span covers the whole attack, and
// the oracle it is handed is traced.
func tracedAttack(rec *recorder, inner server.AttackFunc) server.AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		start := rec.now()
		res, err := inner(ctx, target, original, &tracedOracle{Oracle: oracle, rec: rec}, seed)
		end := rec.now()
		rec.add(span{kind: spanAttack, key: rec.jobKey(target.Name(), original), start: start, end: end})
		return res, err
	}
}
