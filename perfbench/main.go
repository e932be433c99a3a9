// Command perfbench is the repository's benchmark. It hosts the serving
// stack in-process through its public constructors, with mpassd's defaults,
// drives one workload against it over loopback HTTP, checks every answer,
// and prints a report followed by one JSON result line.
//
//	bash perfbench/run.sh --workload scan-cold --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced on a fresh stack of the same
// shape, and reports the per-layer metrics. --workload all runs the four
// workloads in turn. See README.md for the workloads and metric
// definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/sandbox"
)

// workload is one traffic mix.
type workload struct {
	name     string
	replicas int
	gateway  bool
	hot      bool // warm and cycle the hot pool; otherwise every scan is a distinct body
	attack   bool // one connection runs the campaign, the other cold scans
	// rounds splits the timed phase: each round starts fresh client
	// goroutines on fresh connections, and the scan metrics are the median
	// over rounds, so a slow spell of the machine moves one round, not the
	// result. Every round must hold 1000 scans for its p99, so the
	// low-rate workloads use fewer; attack-mix is one round, its campaign.
	rounds int
}

var workloads = []workload{
	{name: "scan-hot", replicas: 1, hot: true, rounds: 8},
	{name: "scan-cold", replicas: 1, rounds: 2},
	{name: "attack-mix", replicas: 1, attack: true, rounds: 1},
	{name: "gateway-hot", replicas: 2, gateway: true, hot: true, rounds: 8},
}

// setups is how many times a run builds the stack to measure setup_s; the
// median is reported and the last stack serves the timed phase.
const setups = 11

// jobsPerSecond sizes the attack campaign so it lasts about --seconds on a
// two-core machine. The campaign is a fixed list, so its outcomes do not
// depend on timing; it has at least 20 jobs so job-level medians are
// reported.
const jobsPerSecond = 3

func main() {
	name := flag.String("workload", "", "scan-hot, scan-cold, attack-mix, gateway-hot, or all")
	seed := flag.Int64("seed", 1, "workload seed: hot pool, cold bodies and campaign order")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload scan-hot|scan-cold|attack-mix|gateway-hot|all --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if err := benchmark(run, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is what every workload of an invocation shares.
type env struct {
	dir      string       // scratch directory inside the checkout
	models   string       // trained engines, as mpassd persists them
	ref      *engine.Set  // an independent load, for reference scores
	client   *http.Client // at most nproc connections
	clients  int
	seed     int64
	seconds  int
	jobsEach int
}

func benchmark(run []workload, seed int64, seconds int, traced bool) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Training is outside every timed run: once per invocation, persisted
	// the way mpassd persists a trained set.
	start := time.Now()
	set, err := train(trainMal, trainBen)
	if err != nil {
		return err
	}
	e := &env{dir: dir, models: filepath.Join(dir, "models"), seed: seed, seconds: seconds}
	if err := engine.SaveDir(e.models, set); err != nil {
		return fmt.Errorf("saving engines: %w", err)
	}
	if e.ref, _, err = engine.LoadPath(e.models); err != nil {
		return err
	}
	fmt.Printf("trained %d engines (%s) in %.1f s\n", e.ref.Len(), e.ref.Version(), time.Since(start).Seconds())

	// Closed-loop clients: one per CPU, at most two; the hot workloads use
	// one. attack-mix always uses two connections, the campaign and one
	// scanner.
	e.clients = min(2, runtime.NumCPU())
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer tr.CloseIdleConnections()
	e.client = &http.Client{Transport: tr}
	e.jobsEach = max(5, int(float64(seconds)*jobsPerSecond/4+0.5))

	allCorrect := true
	for _, w := range run {
		var r *result
		if traced {
			r, err = e.tracedRun(w)
		} else {
			r, err = e.untracedRun(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(r.jsonLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && r.correct
	}
	if !allCorrect {
		return errors.New("outputs failed their correctness checks")
	}
	return nil
}

// train builds the four offline engines the way mpassd does when it has no
// model path: from the seed, on nMal/nBen generated samples.
func train(nMal, nBen int) (*engine.Set, error) {
	ds := corpus.MakeAugmentedDataset(trainSeed, nMal, nBen, 0.67)
	cfg := detect.DefaultTrainConfig()
	cfg.Seed = trainSeed
	suite, err := detect.TrainSuite(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return engine.FromSuite(suite)
}

// metric is one reported figure. N is the sample count behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one workload run reports.
type result struct {
	correct bool
	t       tally
	metrics []metric // the JSON line's metrics
}

func (r *result) jsonLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]value{}
	for _, x := range r.metrics {
		m[x.Name] = value{x.Value, x.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.t.Attempted, r.t.Shed + r.t.Failed, m}
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("  %s\n", title)
	for _, m := range ms {
		fmt.Printf("    %-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// phase is one timed phase's raw results.
type phase struct {
	scans    scanResult
	rounds   []roundStat
	elapsed  time.Duration
	camp     *campaign
	reverify []string // AEs whose sandbox re-run disagrees with the server
	before   counters
	after    counters
	st       *stack
	keys     *sync.Map // traced: request id -> body content hash
}

// setUp builds the workload's stack and warms it until it has answered its
// first scans: the first score per engine, plus the whole hot pool for the
// hot workloads.
func (e *env) setUp(w workload, in *inputs, rec *recorder) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := buildStack(e.models, e.dir, w.replicas, w.gateway, rec)
	if err != nil {
		return nil, 0, err
	}
	warm := []*body{in.warm}
	if w.hot {
		warm = in.hot
	}
	errs := make(chan error, e.clients)
	for c := 0; c < e.clients; c++ {
		go func(c int) {
			for i := c; i < len(warm); i += e.clients {
				req, err := http.NewRequest(http.MethodPost, st.base+"/v1/scan", bytes.NewReader(warm[i].raw))
				if err != nil {
					errs <- err
					return
				}
				status, _, err := do(e.client, req)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up scan: status %d", status)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var werr error
	for c := 0; c < e.clients; c++ {
		if err := <-errs; err != nil && werr == nil {
			werr = err
		}
	}
	if werr != nil {
		st.close()
		return nil, 0, werr
	}
	return st, time.Since(start), nil
}

// roundStat is one round's scan throughput and latencies.
type roundStat struct {
	ok   int64
	secs float64
	lat  []float64
}

// scanClients is how many closed-loop scan clients w runs.
func (e *env) scanClients(w workload) int {
	switch {
	case w.hot:
		// With two, the client, gateway and replica goroutines outnumber
		// the cores, and a hit's p99 measures the scheduler, not the
		// request path.
		return 1
	case w.attack:
		return max(1, e.clients-1) // the other connection runs the campaign
	}
	return e.clients
}

// runPhase drives the workload against st for the timed phase.
func (e *env) runPhase(w workload, in *inputs, st *stack, rec *recorder) *phase {
	ctx := context.Background()
	p := &phase{st: st}
	sc := &scanner{cl: e.client, base: st.base, names: e.ref.Names(), rec: rec, ids: new(atomic.Int64), keys: new(sync.Map)}
	scanClients := e.scanClients(w)
	p.before = readCounters(st)
	if rec != nil {
		rec.on.Store(true)
	}
	start := time.Now()
	for r := 0; r < w.rounds; r++ {
		rs := time.Now()
		until := start.Add(time.Duration(e.seconds) * time.Second * time.Duration(r+1) / time.Duration(w.rounds))
		if w.attack {
			until = rs.Add(time.Hour) // the scans stop when the campaign ends
		}
		stop := make(chan struct{})
		results := make(chan scanResult, scanClients)
		for c := 0; c < scanClients; c++ {
			next := in.cold.next
			if w.hot {
				// Each client walks its own seeded permutation of the pool.
				perm := in.order.Perm(len(in.hot))
				i := 0
				next = func() *body {
					b := in.hot[perm[i%len(perm)]]
					i++
					return b
				}
			}
			go func() { results <- sc.scanLoop(ctx, next, until, stop) }()
		}
		if w.attack {
			camp := runCampaign(ctx, e.client, st.base, in.jobs, rec)
			p.camp = &camp
			close(stop)
		}
		var round scanResult
		for c := 0; c < scanClients; c++ {
			round.merge(<-results)
		}
		p.rounds = append(p.rounds, roundStat{ok: round.t.OK, secs: time.Since(rs).Seconds(), lat: round.lat})
		p.scans.merge(round)
		e.client.CloseIdleConnections()
	}
	p.elapsed = time.Since(start)
	if rec != nil {
		rec.on.Store(false)
		p.keys = sc.keys
	}
	p.after = readCounters(st)

	// Correctness checks run outside the timed phase.
	finishAudits(e.ref, &p.scans)
	if p.camp != nil {
		for _, j := range p.camp.jobs {
			if j.view.Success == nil || !*j.view.Success {
				continue
			}
			ok, err := sandbox.BehaviourPreserved(j.spec.raw, j.ae)
			claimed := j.view.Functional != nil && *j.view.Functional
			if err != nil || ok != claimed {
				p.reverify = append(p.reverify, j.id)
			}
		}
	}
	return p
}

// untracedRun measures the end-to-end metrics.
func (e *env) untracedRun(w workload) (*result, error) {
	in := newInputs(e.seed, e.jobsEach, e.ref.Names())
	for _, b := range in.hot {
		scoreRef(e.ref, b)
	}
	var setupS []float64
	var st *stack
	for i := 0; i < setups; i++ {
		s, d, err := e.setUp(w, in, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			e.client.CloseIdleConnections()
			continue
		}
		st = s
	}
	p := e.runPhase(w, in, st, nil)
	err := st.close()
	e.client.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	return e.report(w, p, setupS, nil, nil)
}

// tracedRun runs the workload untraced, then traced on a fresh stack of
// the same shape, and reports the per-layer metrics.
func (e *env) tracedRun(w workload) (*result, error) {
	var ps [2]*phase
	var rec *recorder
	for i := range ps {
		if i == 1 {
			rec = newRecorder()
		}
		in := newInputs(e.seed, e.jobsEach, e.ref.Names())
		for _, b := range in.hot {
			scoreRef(e.ref, b)
		}
		st, _, err := e.setUp(w, in, rec)
		if err != nil {
			return nil, err
		}
		ps[i] = e.runPhase(w, in, st, rec)
		err = st.close()
		e.client.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	out := filepath.Join(filepath.Dir(e.dir), "trace")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, w.name+".tsv")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return e.report(w, ps[1], nil, ps[0], rec)
}
