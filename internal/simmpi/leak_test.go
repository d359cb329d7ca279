package simmpi

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// collectiveOps names every collective in the API paired with a body
// that blocks rank 0 inside it while the other ranks never arrive —
// the worst-case shape for cancellation, since the blocked rank can
// only be freed by the abort broadcast, never by rendezvous progress.
func collectiveOps() []struct {
	name string
	call func(r *Rank)
} {
	buf := func(n int) []float64 { return make([]float64, n) }
	return []struct {
		name string
		call func(r *Rank)
	}{
		{"Barrier", func(r *Rank) { r.Barrier(r.World()) }},
		{"Bcast", func(r *Rank) { r.Bcast(r.World(), 0, buf(8)) }},
		{"Allreduce", func(r *Rank) { r.Allreduce(r.World(), buf(8), OpSum) }},
		{"AllreduceScalar", func(r *Rank) { r.AllreduceScalar(r.World(), 1, OpMax) }},
		{"Reduce", func(r *Rank) { r.Reduce(r.World(), 0, buf(8), OpSum) }},
		{"Allgather", func(r *Rank) { r.Allgather(r.World(), buf(4)) }},
		{"Gather", func(r *Rank) { r.Gather(r.World(), 0, buf(4)) }},
		{"Alltoall", func(r *Rank) {
			parts := make([][]float64, r.N())
			for i := range parts {
				parts[i] = buf(2)
			}
			r.Alltoall(r.World(), parts)
		}},
		{"Scatter", func(r *Rank) {
			parts := make([][]float64, r.N())
			for i := range parts {
				parts[i] = buf(2)
			}
			r.Scatter(r.World(), 0, parts)
		}},
		{"ReduceScatter", func(r *Rank) { r.ReduceScatter(r.World(), buf(8), OpSum) }},
		{"ChargeAlltoallN", func(r *Rank) { r.ChargeAlltoallN(r.World(), 64, 1) }},
		{"Recv", func(r *Rank) { r.Recv((r.ID()+1)%r.N(), 42) }},
	}
}

// TestCancelMidCollectiveNoLeak cancels a run while rank 0 is blocked
// inside each collective op and verifies every rank goroutine unwinds:
// RunContext returns the context error and the world's goroutines are
// gone. A leaked rank would deadlock real workloads that reuse worker
// pools and would poison goroutine counts for the whole process.
func TestCancelMidCollectiveNoLeak(t *testing.T) {
	warmPools(t)
	for _, op := range collectiveOps() {
		t.Run(op.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			entered := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, Config{Machine: machine.Bassi, Procs: 8}, func(r *Rank) {
					if r.ID() == 0 {
						close(entered)
						op.call(r) // blocks: peers never arrive
						return
					}
					// Peers idle until cancellation, then unwind at
					// their next communication op.
					<-ctx.Done()
					r.Barrier(r.World())
				})
				done <- err
			}()
			<-entered
			// Give rank 0 a moment to actually block inside the op.
			time.Sleep(5 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s: cancelled run returned nil error", op.name)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: run did not unwind after cancel:\n%s", op.name, stackDump())
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestCancelSplitCommNoLeak cancels ranks blocked in a collective on a
// sub-communicator (Split world in half, evens never arrive).
func TestCancelSplitCommNoLeak(t *testing.T) {
	warmPools(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Config{Machine: machine.Bassi, Procs: 8}, func(r *Rank) {
			sub := r.Split(r.World(), r.ID()%2, r.ID())
			switch {
			case r.ID() == 1:
				close(entered)
				// Nudge rank 7 out of its Recv only after `entered` is
				// closed, so the host-side block below cannot starve the
				// cooperative scheduler before cancellation is unlocked.
				r.Send(7, 99, nil)
				r.Barrier(sub) // blocks: rank 7 never arrives
			case r.ID()%2 == 1 && r.ID() != 7:
				r.Barrier(sub) // blocks: rank 7 never arrives
			case r.ID() == 7:
				r.Recv(1, 99)
				<-ctx.Done()
			}
		})
		done <- err
	}()
	<-entered
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("split-comm run did not unwind after cancel:\n%s", stackDump())
	}
	waitForGoroutines(t, before)
}

// warmPools runs one cancellable world to completion so the
// process-wide pool of duty hosts is populated before a leak test takes
// its baseline count: hosts park in the pool after a run by design,
// which a cold baseline would misread as a leak. Cancellation itself
// starts no goroutine; ranks poll the context at each communication op.
func warmPools(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunContext(ctx, Config{Machine: machine.Bassi, Procs: 8}, func(r *Rank) {
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitForGoroutines polls until the goroutine count returns to the
// pre-run level (with slack for runtime background goroutines).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after:\n%s", before, n, stackDump())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func stackDump() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	s := string(buf[:n])
	if i := strings.Index(s, "\n\ngoroutine"); i > 0 && len(s) > 8000 {
		return s[:8000] + fmt.Sprintf("\n... (%d bytes truncated)", len(s)-8000)
	}
	return s
}
