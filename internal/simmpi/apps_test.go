package simmpi_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/machine"
	"repro/internal/simmpi"
)

// pointConfig mirrors apps.RunPoint's point construction for a fixed
// application configuration: the platform substitution and preferred
// mapping for spec.
func pointConfig(w apps.Workload, spec machine.Spec, procs int, cfg any) simmpi.Config {
	run := spec
	if p, ok := w.(apps.SpecPreparer); ok {
		run = p.PrepareSpec(spec)
	}
	sim := simmpi.Config{Machine: run, Procs: procs}
	if m, ok := w.(apps.Mapper); ok {
		if mp, ok := m.PreferredMapping(run, procs, cfg); ok {
			sim.Mapping = mp
		}
	}
	return sim
}

func recordApp(t *testing.T, w apps.Workload, spec machine.Spec, procs int, cfg any) *simmpi.OpLog {
	t.Helper()
	rec := simmpi.NewRecorder(1 << 30)
	sim := pointConfig(w, spec, procs, cfg)
	sim.Record = rec
	if _, err := w.Run(context.Background(), sim, cfg); err != nil {
		t.Fatalf("%s P=%d on %s: %v", w.Name(), procs, spec.Name, err)
	}
	if rec.Log() == nil {
		t.Fatalf("%s P=%d on %s: no log (abandoned %v)", w.Name(), procs, spec.Name, rec.Abandoned())
	}
	return rec.Log()
}

// TestAppLogsPriceOnEveryMachine is the differential gate of record
// once, price per machine: each workload recorded on Bassi, priced
// against every built-in machine's spec and mapping, must return the
// Report of a running world on that machine, bit for bit.
func TestAppLogsPriceOnEveryMachine(t *testing.T) {
	ctx := context.Background()
	for _, w := range apps.Workloads() {
		for _, procs := range []int{4, 16, 64} {
			cfg := w.DefaultConfig(machine.Bassi, procs)
			log := recordApp(t, w, machine.Bassi, procs, cfg)
			for _, spec := range machine.All() {
				sim := pointConfig(w, spec, procs, cfg)
				want, err := w.Run(ctx, sim, cfg)
				if err != nil {
					t.Fatalf("%s P=%d on %s: %v", w.Name(), procs, spec.Name, err)
				}
				got, err := log.Price(ctx, sim)
				if err != nil {
					t.Fatalf("%s P=%d priced on %s: %v", w.Name(), procs, spec.Name, err)
				}
				if g, r := simmpi.ReportBits(got), simmpi.ReportBits(want); g != r {
					t.Errorf("%s P=%d on %s:\npriced %s\nran    %s", w.Name(), procs, spec.Name, g, r)
				}
			}
		}
	}
}

// TestAppLogsMachineIndependent records each workload's point on two
// machines of different topology and mapping: the logs must be
// byte-equal, so no app reads the machine outside the cost models.
func TestAppLogsMachineIndependent(t *testing.T) {
	for _, w := range apps.Workloads() {
		cfg := w.DefaultConfig(machine.Bassi, 16)
		a := simmpi.LogBytes(recordApp(t, w, machine.Bassi, 16, cfg))
		b := simmpi.LogBytes(recordApp(t, w, machine.BGL, 16, cfg))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: log recorded on BG/L differs from Bassi's (%d vs %d bytes)", w.Name(), len(b), len(a))
		}
	}
}
