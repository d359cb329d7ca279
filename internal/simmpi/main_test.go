package simmpi

import (
	"context"
	"os"
	"testing"
)

// TestMain primes the process-global host pool before any test runs.
// Idle hosts are deliberately retained goroutines (see maxIdleHosts),
// so the leak tests' NumGoroutine baselines must be taken against a
// warm pool — otherwise the first world a cold `go test -run Leak`
// spawns would grow the pool and read as a leak. One world wide enough
// to park every rank at once covers every test's host demand.
func TestMain(m *testing.M) {
	if _, err := RunContext(context.Background(), testCfg(64), func(r *Rank) {
		r.Barrier(r.World())
	}); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}
