// Command mpassd is the serving daemon: it keeps the trained detector
// engines resident behind the driver registry of internal/engine and exposes
// the scan/attack HTTP API of internal/server — micro-batched scoring on
// POST /v1/scan, async MPass attack jobs on POST /v1/attack, zero-downtime
// model hot-reload on POST /v1/models/reload, plus /healthz and /metrics.
//
// -models names a directory of per-engine envelopes, as written by
// `mpass-train -out-dir models/` (or a single envelope file). When the path
// is absent, engines are trained in-process from the seed and saved there
// as envelopes, so the next start is fast:
//
//	mpass-train -out-dir models/
//	mpassd -models models/ -addr 127.0.0.1:8877
//	curl -X POST 'http://127.0.0.1:8877/v1/models/reload'   # after retraining
//
// SIGINT/SIGTERM drain gracefully: new requests are rejected, in-flight
// scans and attack jobs finish (bounded by -drain), then the process exits.
// Attack jobs are individually bounded by -job-deadline, finished results
// are retained for -job-ttl inside a -max-jobs-capped registry, and the
// -fault-* flags wrap each job's oracle in deterministic fault injection
// (internal/faultinject) for resilience drills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mpass/internal/core"
	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/faultinject"
	"mpass/internal/nn"
	"mpass/internal/server"
	"mpass/internal/tenant"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpassd: ")

	addr := flag.String("addr", "127.0.0.1:8877", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address here once listening (for scripts using port 0)")
	models := flag.String("models", "", "model path: per-engine envelope dir; loaded if present, else trained and saved here")
	seed := flag.Int64("seed", 1, "corpus/training seed when models are trained in-process")
	nMal := flag.Int("malware", 60, "malware samples in the training corpus")
	nBen := flag.Int("benign", 60, "benign samples in the training corpus")
	workers := flag.Int("workers", 0, "worker-pool size for in-process training (0 = GOMAXPROCS)")
	donors := flag.Int("donors", 64, "benign-donor pool size for attack jobs")
	maxQueries := flag.Int("max-queries", 100, "per-job oracle query budget")

	maxBatch := flag.Int("max-batch", 32, "max scans per coalesced batch; a flush takes only what is already queued, never waiting for more")
	scanQueue := flag.Int("scan-queue", 256, "scan admission queue; full sheds with 429")
	cacheSize := flag.Int("cache", 4096, "score-cache entries (0 disables)")
	attackWorkers := flag.Int("attack-workers", 2, "concurrent attack jobs")
	attackQueue := flag.Int("attack-queue", 64, "attack admission queue; full sheds with 429")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	quant := flag.String("quant", "off", "fixed-point inference tables for the neural detectors: off or int32")
	streamThreshold := flag.Int64("stream-threshold", 1<<20, "scan bodies longer than this stream in O(chunk) memory (negative disables streaming)")
	streamChunk := flag.Int("stream-chunk", 256<<10, "streaming scan read size")
	maxStreamBytes := flag.Int64("max-stream-bytes", 64<<20, "largest accepted streamed scan body (413 beyond)")

	tenantsPath := flag.String("tenants", "", "tenant allowlist JSON; enables API-key auth + per-tenant quotas (SIGHUP or POST /v1/tenants/reload re-reads it)")

	jobDeadline := flag.Duration("job-deadline", 2*time.Minute, "per-attack-job runtime cap (negative disables)")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "finished-job result retention (negative disables)")
	maxJobs := flag.Int("max-jobs", 4096, "job-registry cap, live + retained (negative = unbounded)")

	faultHang := flag.Float64("fault-hang", 0, "inject: probability an oracle query hangs until cancelled")
	faultError := flag.Float64("fault-error", 0, "inject: probability an oracle query fails transiently")
	faultLatency := flag.Float64("fault-latency", 0, "inject: probability an oracle query is delayed")
	faultDelay := flag.Duration("fault-delay", 50*time.Millisecond, "inject: delay magnitude for -fault-latency")
	faultSeed := flag.Int64("fault-seed", 1, "inject: fault-decision stream seed")
	flag.Parse()
	if *workers < 0 {
		log.Fatalf("workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	qmode, err := nn.ParseQuantMode(*quant)
	if err != nil {
		log.Fatal(err)
	}

	set, err := loadOrTrain(*models, *seed, *nMal, *nBen, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if qmode != nn.QuantOff {
		// Applied after load/train, before serving: the fixed-point tables
		// derive from the resident weights on first use and survive model
		// hot paths for the daemon's lifetime. int32 is the certified
		// (<= 1e-6 score deviation, label-identical) serving mode. Reloaded
		// engine sets get the same mode applied during certification.
		set.SetQuantMode(qmode)
		log.Printf("quantized inference: %v", qmode)
	}
	reg, err := engine.NewRegistry(set)
	if err != nil {
		log.Fatal(err)
	}

	// The donor pool reuses the eval harness's generator stream (seed offset
	// 77000), so daemon attacks see the same benign donors as the offline
	// experiments at equal seeds.
	g := corpus.NewGenerator(*seed + 77000)
	pool := make([][]byte, *donors)
	for i := range pool {
		pool[i] = g.Sample(corpus.Benign).Raw
	}

	modelPath := *models
	cfg := server.Config{
		Registry: reg,
		Attack:   server.MPassAttack(reg, pool, *maxQueries),
		Quant:    qmode,
		// Reload re-reads the model path (or the request's ?path= override)
		// and hands the candidate set to the server's certify-then-swap.
		Reload: func(override string) (*engine.Set, error) {
			p := override
			if p == "" {
				p = modelPath
			}
			if p == "" {
				return nil, fmt.Errorf("no model path: pass ?path= or start mpassd with -models")
			}
			next, src, err := engine.LoadPath(p)
			if err != nil {
				return nil, err
			}
			log.Printf("reload: loaded %s", src)
			return next, nil
		},
		MaxBatch:        *maxBatch,
		ScanQueue:       *scanQueue,
		CacheSize:       *cacheSize,
		AttackWorkers:   *attackWorkers,
		AttackQueue:     *attackQueue,
		RequestTimeout:  *timeout,
		StreamThreshold: *streamThreshold,
		StreamChunk:     *streamChunk,
		MaxStreamBytes:  *maxStreamBytes,
		JobDeadline:     *jobDeadline,
		JobTTL:          *jobTTL,
		MaxJobs:         *maxJobs,
		Seed:            *seed,
	}
	var tenants *tenant.Table
	if *tenantsPath != "" {
		tenants, err = tenant.LoadTable(*tenantsPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants = tenants
		log.Printf("tenant auth on: %d tenants from %s", tenants.Len(), *tenantsPath)
	}
	if *faultHang > 0 || *faultError > 0 || *faultLatency > 0 {
		fcfg := faultinject.Config{
			Seed:        *faultSeed,
			HangRate:    *faultHang,
			ErrorRate:   *faultError,
			LatencyRate: *faultLatency,
			Latency:     *faultDelay,
		}
		// OracleWrap runs once per attack job; offset the seed per job so
		// short-query jobs don't all replay the same stream prefix (which
		// would make injection nearly inert at low rates).
		var faultSeq atomic.Int64
		cfg.OracleWrap = func(inner core.Oracle) core.Oracle {
			fc := fcfg
			fc.Seed += faultSeq.Add(1) * 104729
			return faultinject.Wrap(inner, fc)
		}
		log.Printf("FAULT INJECTION ON: hang=%.2f error=%.2f latency=%.2f/%v seed=%d (attack-oracle queries only)",
			*faultHang, *faultError, *faultLatency, *faultDelay, *faultSeed)
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s (models: %s)", bound, modelSource(*models))

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	// Serve blocks for the daemon's whole lifetime; the pool layer is for
	// bounded units of work, not a process-long accept loop.
	//lint:ignore nakedgo process-lifetime http accept loop, not pool work
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
wait:
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// SIGHUP re-reads the tenant allowlist in place; a bad file
				// logs and keeps the current table serving.
				if tenants == nil {
					log.Printf("SIGHUP ignored: no -tenants allowlist configured")
					continue
				}
				n, err := tenants.Reload()
				if err != nil {
					log.Printf("tenant reload failed (allowlist unchanged): %v", err)
					continue
				}
				srv.Metrics().TenantReloads.Add(1)
				log.Printf("tenant allowlist reloaded: %d tenants", n)
				continue
			}
			log.Printf("received %v, draining (deadline %v)", s, *drain)
			break wait
		case err := <-serveErr:
			log.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// srv.Shutdown flips the draining flag immediately (new requests get
	// 503) and completes queued/running attack jobs; httpSrv.Shutdown waits
	// for in-flight handlers. They overlap so one slow half does not eat the
	// other's share of the drain budget.
	pipelineDone := make(chan error, 1)
	//lint:ignore nakedgo one-shot shutdown overlap; both halves share the drain deadline
	go func() { pipelineDone <- srv.Shutdown(ctx) }()
	httpErr := httpSrv.Shutdown(ctx)
	pipeErr := <-pipelineDone
	switch {
	case pipeErr != nil:
		log.Fatalf("drain incomplete: %v", pipeErr)
	case httpErr != nil:
		log.Fatalf("http shutdown: %v", httpErr)
	}
	log.Printf("drained cleanly")
}

// loadOrTrain resolves the resident engine set: load the model path when it
// exists, otherwise train the offline suite from the seed and persist its
// per-engine envelopes there when a path was given.
func loadOrTrain(path string, seed int64, nMal, nBen, workers int) (*engine.Set, error) {
	if path != "" {
		loaded, src, err := engine.LoadPath(path)
		if err == nil {
			log.Printf("loaded models from %s", src)
			return loaded, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		log.Printf("%s not found, training from seed %d", path, seed)
	} else {
		log.Printf("no -models path, training from seed %d", seed)
	}

	start := time.Now()
	ds := corpus.MakeAugmentedDataset(seed, nMal, nBen, 0.67)
	cfg := detect.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	suite, err := detect.TrainSuite(ds, cfg)
	if err != nil {
		return nil, err
	}
	set, err := engine.FromSuite(suite)
	if err != nil {
		return nil, err
	}
	log.Printf("trained offline suite in %v", time.Since(start).Round(time.Millisecond))

	if path != "" {
		if err := engine.SaveDir(path, set); err != nil {
			return nil, fmt.Errorf("saving %s: %w", path, err)
		}
		log.Printf("saved models to %s", path)
	}
	return set, nil
}

func modelSource(path string) string {
	if path == "" {
		return "in-process training"
	}
	return path
}
