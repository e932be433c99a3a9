package server

import (
	"context"
	"time"
)

// freshRoot is the pre-hardening resident-oracle shape: a serving-path
// query minting its own context root, unreachable by shutdown.
func freshRoot(timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), timeout) // want "ctxflow: context.Background mints a fresh root"
}

func todoRoot() context.Context {
	return context.TODO() // want "ctxflow: context.TODO mints a fresh root"
}

func uninterruptibleBackoff(d time.Duration) {
	time.Sleep(d) // want "ctxflow: time.Sleep cannot observe cancellation"
}

// threaded derives from the caller's ctx — the shape ctxflow demands.
func threaded(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, timeout)
}

// interruptibleBackoff waits with a timer select, observing cancellation.
func interruptibleBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// lifetimeRoot is the sanctioned escape hatch: a justified suppression.
func lifetimeRoot() (context.Context, context.CancelFunc) {
	//lint:ignore ctxflow fixture: process-lifetime root, cancelled by the owner on shutdown
	return context.WithCancel(context.Background())
}
