package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/engine"
	"mpass/internal/gateway"
	"mpass/internal/nn"
	"mpass/internal/server"
)

// mpassd's defaults, which every replica in the benchmark serves with.
const (
	trainSeed  = 1 // mpassd -seed: corpus, training and attack-job seed
	trainMal   = 60
	trainBen   = 60
	donors     = 64
	maxQueries = 100
)

// replica is one in-process mpassd: the server behind its own loopback
// listener.
type replica struct {
	srv  *server.Server
	http *http.Server
	addr string
}

// stack is one serving topology: one replica, or two replicas behind a
// gateway. base is the URL clients send to.
type stack struct {
	replicas []*replica
	gw       *gateway.Gateway
	gwHTTP   *http.Server
	gwInner  *http.Transport // the traced gateway's replica transport
	base     string
}

// startReplica does what mpassd does at start with a model directory:
// load it, build the registry and the donor pool, and serve.
func startReplica(modelDir string, rec *recorder) (*replica, error) {
	set, _, err := engine.LoadPath(modelDir)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if set, err = wrapSet(set, rec); err != nil {
			return nil, err
		}
	}
	reg, err := engine.NewRegistry(set)
	if err != nil {
		return nil, err
	}
	g := corpus.NewGenerator(trainSeed + 77000)
	pool := make([][]byte, donors)
	for i := range pool {
		pool[i] = g.Sample(corpus.Benign).Raw
	}
	attack := server.MPassAttack(reg, pool, maxQueries)
	if rec != nil {
		attack = tracedAttack(rec, attack)
	}
	srv, err := server.New(server.Config{
		Registry: reg,
		Attack:   attack,
		Quant:    nn.QuantOff,
		Reload: func(string) (*engine.Set, error) {
			next, _, err := engine.LoadPath(modelDir)
			return next, err
		},
		MaxBatch:        32,
		BatchWindow:     2 * time.Millisecond,
		ScanQueue:       256,
		CacheSize:       4096,
		AttackWorkers:   2,
		AttackQueue:     64,
		RequestTimeout:  10 * time.Second,
		StreamThreshold: 1 << 20,
		StreamChunk:     256 << 10,
		MaxStreamBytes:  64 << 20,
		JobDeadline:     2 * time.Minute,
		JobTTL:          10 * time.Minute,
		MaxJobs:         4096,
		Seed:            trainSeed,
	})
	if err != nil {
		return nil, err
	}
	addr, hs, err := serve(srv.Handler(), rec, spanServerConn, spanServerHTTP)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &replica{srv: srv, http: hs, addr: addr}, nil
}

// serve starts an http.Server for h on a loopback port. Traced, the
// listener records conn spans and the handler records its own span.
func serve(h http.Handler, rec *recorder, connKind, httpKind spanKind) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	if rec != nil {
		ln = &tracedListener{Listener: ln, rec: rec, kind: connKind}
		hs.Handler = tracedHandler(rec, httpKind, h)
		hs.ConnContext = connContext
	}
	go hs.Serve(ln)
	return ln.Addr().String(), hs, nil
}

// buildStack starts n replicas and, when withGateway, a gateway over them
// with mpass-gateway's defaults.
func buildStack(modelDir, spoolDir string, n int, withGateway bool, rec *recorder) (*stack, error) {
	st := &stack{}
	for i := 0; i < n; i++ {
		r, err := startReplica(modelDir, rec)
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, r)
	}
	if !withGateway {
		st.base = "http://" + st.replicas[0].addr
		return st, nil
	}
	cfg := gateway.Config{SpoolDir: spoolDir}
	for _, r := range st.replicas {
		cfg.Replicas = append(cfg.Replicas, r.addr)
	}
	if rec != nil {
		// The same pooled transport gateway.New builds for itself when
		// Config.Transport is nil, wrapped.
		st.gwInner = &http.Transport{
			MaxIdleConns:        64 * n,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
		cfg.Transport = &tracedTransport{inner: st.gwInner, rec: rec}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	addr, hs, err := serve(gw.Handler(), rec, spanGatewayConn, spanGatewayHTTP)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gwHTTP = hs
	st.base = "http://" + addr
	return st, nil
}

// close stops the gateway, then every replica, and waits for in-flight
// requests and attack jobs to finish.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.gwHTTP != nil {
		errs = append(errs, st.gwHTTP.Shutdown(ctx))
	}
	if st.gw != nil {
		errs = append(errs, st.gw.Close(ctx))
	}
	if st.gwInner != nil {
		st.gwInner.CloseIdleConnections()
	}
	for _, r := range st.replicas {
		errs = append(errs, r.http.Shutdown(ctx), r.srv.Shutdown(ctx))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stopping the stack: %w", err)
	}
	return nil
}
