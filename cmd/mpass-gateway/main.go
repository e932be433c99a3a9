// Command mpass-gateway is the cluster front tier: it fans a fleet of
// mpassd replicas behind one endpoint, routing scans by consistent hash of
// the content SHA-256 so each replica's score cache stays hot for its
// shard, and attack jobs to the least-loaded healthy replica under the
// cluster-wide job-ID namespace {replica}/{id}.
//
//	mpassd -addr 127.0.0.1:9001 -models models/ &
//	mpassd -addr 127.0.0.1:9002 -models models/ &
//	mpassd -addr 127.0.0.1:9003 -models models/ &
//	mpass-gateway -replicas 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//	              -addr 127.0.0.1:8877
//
// The gateway probes each replica's /healthz on a jittered interval, drains a
// lost replica's shard onto survivors (requests in flight at the moment of
// failure are retried once on the rebuilt ring's owner), aggregates
// /metrics across the fleet, and answers 429 with a cluster-level
// Retry-After computed from the summed replica backlogs.
//
// SIGINT/SIGTERM drain gracefully: new requests get 503, in-flight
// forwards finish (bounded by -drain), then the process exits. The
// -fault-* flags wrap the replica transport in deterministic fault
// injection (internal/faultinject) for cluster resilience drills.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpass/internal/faultinject"
	"mpass/internal/gateway"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-gateway: ")

	addr := flag.String("addr", "127.0.0.1:8877", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address here once listening (for scripts using port 0)")
	replicas := flag.String("replicas", "", "comma-separated mpassd replica addresses (host:port), required")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per replica on the hash ring")
	seed := flag.Int64("seed", 1, "probe-jitter seed")

	healthInterval := flag.Duration("health-interval", time.Second, "mean /healthz probe interval per replica (jittered)")
	healthTimeout := flag.Duration("health-timeout", 2*time.Second, "per-probe deadline")
	failAfter := flag.Int("fail-after", 2, "consecutive probe failures before a replica is marked down")

	timeout := flag.Duration("timeout", 30*time.Second, "per-forwarded-request deadline")
	maxBuffer := flag.Int64("max-buffer", 1<<20, "largest scan body buffered in memory; larger bodies spool to disk while hashing")
	maxBody := flag.Int64("max-body", 64<<20, "largest accepted scan body (413 beyond)")
	spoolDir := flag.String("spool-dir", "", "directory for spooled upload temp files (default: system temp)")
	idleConns := flag.Int("idle-conns", 64, "pooled keep-alive connections per replica")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")

	faultError := flag.Float64("fault-error", 0, "inject: probability a replica request fails at the transport")
	faultLatency := flag.Float64("fault-latency", 0, "inject: probability a replica request is delayed")
	faultDelay := flag.Duration("fault-delay", 50*time.Millisecond, "inject: delay magnitude for -fault-latency")
	faultSeed := flag.Int64("fault-seed", 1, "inject: fault-decision stream seed")
	flag.Parse()

	var names []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			names = append(names, r)
		}
	}
	if len(names) == 0 {
		log.Fatal("-replicas is required: a comma-separated list of mpassd host:port addresses")
	}

	cfg := gateway.Config{
		Replicas:               names,
		VNodes:                 *vnodes,
		Seed:                   *seed,
		HealthInterval:         *healthInterval,
		HealthTimeout:          *healthTimeout,
		FailAfter:              *failAfter,
		RequestTimeout:         *timeout,
		MaxBufferBytes:         *maxBuffer,
		MaxBodyBytes:           *maxBody,
		SpoolDir:               *spoolDir,
		MaxIdleConnsPerReplica: *idleConns,
	}
	if *faultError > 0 || *faultLatency > 0 {
		cfg.Transport = faultinject.WrapTransport(nil, faultinject.TransportConfig{
			Seed:        *faultSeed,
			ErrorRate:   *faultError,
			LatencyRate: *faultLatency,
			Latency:     *faultDelay,
		})
		log.Printf("FAULT INJECTION ON: error=%.2f latency=%.2f/%v seed=%d (replica transport)",
			*faultError, *faultLatency, *faultDelay, *faultSeed)
	}

	gw, err := gateway.New(cfg)
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
	log.Printf("listening on %s, fronting %d replicas: %s", bound, len(names), strings.Join(names, ", "))

	httpSrv := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	// Serve blocks for the gateway's whole lifetime; the pool layer is for
	// bounded units of work, not a process-long accept loop.
	//lint:ignore nakedgo process-lifetime http accept loop, not pool work
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, draining (deadline %v)", s, *drain)
	case err := <-serveErr:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// gw.Close flips the draining flag (new requests get 503) and stops the
	// probe loops; httpSrv.Shutdown waits for in-flight forwards. They
	// overlap so one slow half does not eat the other's drain budget.
	closeDone := make(chan error, 1)
	//lint:ignore nakedgo one-shot shutdown overlap; both halves share the drain deadline
	go func() { closeDone <- gw.Close(ctx) }()
	httpErr := httpSrv.Shutdown(ctx)
	closeErr := <-closeDone
	switch {
	case closeErr != nil:
		log.Fatalf("drain incomplete: %v", closeErr)
	case httpErr != nil:
		log.Fatalf("http shutdown: %v", httpErr)
	}
	log.Printf("drained cleanly")
}
