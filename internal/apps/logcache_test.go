package apps_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/simmpi"
)

// TestRunPointRecordsOnce runs one Cactus point on every machine at
// once: exactly one run records the shared op log, the others wait for
// it and price it, and every Report equals a running world's on its
// machine.
func TestRunPointRecordsOnce(t *testing.T) {
	ctx := context.Background()
	apps.ResetLogCache()
	w, err := apps.Lookup("cactus")
	if err != nil {
		t.Fatal(err)
	}
	specs := machine.All()
	before := apps.LogCache()
	reps := make([]*simmpi.Report, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := apps.RunPoint(ctx, w, spec, 16)
			if err != nil {
				t.Error(err)
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	after := apps.LogCache()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != int64(len(specs)-1) {
		t.Errorf("%d misses and %d hits for one key on %d machines", misses, hits, len(specs))
	}
	if after.Entries != 1 || after.Bytes <= 0 {
		t.Errorf("cache holds %d logs in %d bytes, want the one", after.Entries, after.Bytes)
	}
	for i, spec := range specs {
		sim := simmpi.Config{Machine: w.(apps.SpecPreparer).PrepareSpec(spec), Procs: 16}
		want, err := w.Run(ctx, sim, w.DefaultConfig(spec, 16))
		if err != nil {
			t.Fatal(err)
		}
		if reps[i] == nil || reportLine(reps[i]) != reportLine(want) {
			t.Errorf("%s: RunPoint report differs from a running world's", spec.Name)
		}
	}
}

// probeWorkload is an unregistered workload whose one point crosses its
// phase marks (which the op log cannot replay), fails, panics, or nests
// its marks and records.
type probeWorkload struct {
	name  string
	cross bool
	fail  error
	panic bool
	runs  *int
}

func (p probeWorkload) Name() string                      { return p.name }
func (probeWorkload) Meta() apps.Meta                     { return apps.Meta{} }
func (probeWorkload) DefaultConfig(machine.Spec, int) any { return struct{}{} }
func (p probeWorkload) Run(ctx context.Context, sim simmpi.Config, _ any) (*simmpi.Report, error) {
	*p.runs++
	if p.panic {
		panic("probe")
	}
	if p.fail != nil {
		return nil, p.fail
	}
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		a := r.MarkPhase()
		b := r.MarkPhase()
		r.Elapse(1)
		if p.cross {
			r.EndPhase("a", a)
			r.EndPhase("b", b)
		} else {
			r.EndPhase("b", b)
			r.EndPhase("a", a)
		}
	})
}

// TestRunPointAbandonedAndFailedKeys checks the cache's non-log
// outcomes: a key whose recording was abandoned runs unrecorded from
// then on, and a failed or panicking recording publishes nothing, so the
// next point records again.
func TestRunPointAbandonedAndFailedKeys(t *testing.T) {
	ctx := context.Background()
	apps.ResetLogCache()
	var runs int
	crossed := probeWorkload{name: "probe-crossed", cross: true, runs: &runs}
	before := apps.LogCache()
	for i := 0; i < 3; i++ {
		if _, err := apps.RunPoint(ctx, crossed, machine.Bassi, 4); err != nil {
			t.Fatal(err)
		}
	}
	after := apps.LogCache()
	if runs != 3 || after.Misses-before.Misses != 1 || after.Bypasses-before.Bypasses != 2 || after.Entries != 0 {
		t.Errorf("abandoned key: %d runs, %d misses, %d bypasses, %d held; want 3, 1, 2, 0",
			runs, after.Misses-before.Misses, after.Bypasses-before.Bypasses, after.Entries)
	}

	runs = 0
	boom := errors.New("boom")
	failing := probeWorkload{name: "probe-failing", fail: boom, runs: &runs}
	before = apps.LogCache()
	for i := 0; i < 2; i++ {
		if _, err := apps.RunPoint(ctx, failing, machine.Bassi, 4); !errors.Is(err, boom) {
			t.Fatalf("failing point returned %v", err)
		}
	}
	after = apps.LogCache()
	if runs != 2 || after.Misses-before.Misses != 2 || after.Entries != 0 {
		t.Errorf("failed key: %d runs, %d misses, %d held; want 2, 2, 0", runs, after.Misses-before.Misses, after.Entries)
	}

	// A panicking recording also vacates its slot rather than leave the
	// key's waiters blocked.
	panicking := probeWorkload{name: "probe-panicking", panic: true, runs: &runs}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("probe did not panic")
				}
			}()
			apps.RunPoint(ctx, panicking, machine.Bassi, 4)
		}()
	}
	if st := apps.LogCache(); st.Misses-after.Misses != 2 {
		t.Errorf("panicking key: %d misses, want 2", st.Misses-after.Misses)
	}
	after = apps.LogCache()

	nested := probeWorkload{name: "probe-nested", runs: &runs}
	for i := 0; i < 2; i++ {
		if _, err := apps.RunPoint(ctx, nested, machine.Jaguar, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st := apps.LogCache(); st.Entries != 1 || st.Hits-after.Hits != 1 {
		t.Errorf("nested key: %d held, %d hits; want 1, 1", st.Entries, st.Hits-after.Hits)
	}
}
