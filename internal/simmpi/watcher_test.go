package simmpi

import (
	"context"
	"testing"

	"repro/internal/machine"
)

// TestCancellableRunAddsNoAllocs pins that making a run cancellable
// costs no allocation: the world only keeps the context's Done channel,
// which every communication op polls. An earlier design registered a
// context.AfterFunc per run at four heap allocations (closure,
// afterFuncCtx, stop closure, done channel), enough to more than double
// SimWorldSpawn1024's allocs/op in the benchmark trajectory. A
// regression here shows up as a positive delta long before it shows up
// in BENCH gating.
func TestCancellableRunAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per synchronization event")
	}
	cfg := Config{Machine: machine.Bassi, Procs: 8}
	body := func(r *Rank) { r.Elapse(1e-6) }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Warm the world arena outside the measurement.
	if _, err := RunContext(ctx, cfg, body); err != nil {
		t.Fatal(err)
	}

	base := testing.AllocsPerRun(50, func() {
		if _, err := RunContext(context.Background(), cfg, body); err != nil {
			t.Fatal(err)
		}
	})
	cancellable := testing.AllocsPerRun(50, func() {
		if _, err := RunContext(ctx, cfg, body); err != nil {
			t.Fatal(err)
		}
	})
	// Strictly: a regression costs ≥1 alloc/run. The averages
	// carry sub-1 noise from sync.Pool drops under GC, so compare with
	// a tolerance instead of demanding exact equality.
	if cancellable-base >= 1 {
		t.Fatalf("cancellable run allocates: %.1f allocs/run vs %.1f for a non-cancellable run", cancellable, base)
	}
}
