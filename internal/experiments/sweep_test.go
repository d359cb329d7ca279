package experiments

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/simmpi"
)

// renderSweep runs the acceptance sweep (GTC on BG/L at 64 and 256) and
// renders it through the given pool.
func renderSweep(t *testing.T, pool *runner.Pool) string {
	t.Helper()
	opts := Options{Quick: true, Runner: pool}
	figs, err := Sweep(context.Background(), opts, []string{"gtc"}, []string{"bgl"}, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 {
		t.Fatalf("%d sweep figures, want 1", len(figs))
	}
	var buf bytes.Buffer
	if err := figs[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSweepParallelMatchesSerial is the sweep determinism contract:
// rendered output must be byte-identical across worker counts.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serial := renderSweep(t, &runner.Pool{Workers: 1})
	parallel := renderSweep(t, &runner.Pool{Workers: 8})
	if serial != parallel {
		t.Fatalf("parallel sweep diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestSweepCacheServed runs the same sweep twice against one cache; the
// second run must simulate nothing and render identically.
func TestSweepCacheServed(t *testing.T) {
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := &runner.Pool{Workers: 4, Cache: cache}
	first := renderSweep(t, cold)
	if s := cold.Stats(); s.Hits != 0 || s.Simulated == 0 {
		t.Fatalf("cold stats %+v, want all points simulated", s)
	}
	warm := &runner.Pool{Workers: 4, Cache: cache}
	second := renderSweep(t, warm)
	if s := warm.Stats(); s.Simulated != 0 || s.Hits == 0 {
		t.Fatalf("warm stats %+v, want fully cache-served", s)
	}
	if first != second {
		t.Fatal("cached sweep render diverged from simulated render")
	}
}

// TestSweepDefaultsAndErrors covers the selector edges: unknown names
// fail, and an all-defaults sweep resolves every workload.
func TestSweepDefaultsAndErrors(t *testing.T) {
	if _, err := Sweep(context.Background(), quick(), []string{"nosuchapp"}, nil, []int{64}); err == nil {
		t.Error("sweep of unknown workload succeeded")
	}
	if _, err := Sweep(context.Background(), quick(), nil, []string{"nosuchmachine"}, []int{64}); err == nil {
		t.Error("sweep of unknown machine succeeded")
	}
	if _, err := Sweep(context.Background(), quick(), nil, nil, []int{-1}); err == nil {
		t.Error("sweep with nonpositive concurrency succeeded")
	}
	// Concurrency above every selected machine's size leaves no points.
	if _, err := Sweep(context.Background(), quick(), []string{"elbm3d"}, []string{"phoenix"}, []int{1 << 20}); err == nil {
		t.Error("unrunnable sweep succeeded")
	}
	// One cheap point per workload: every registered app must sweep.
	figs, err := Sweep(context.Background(), Options{Quick: true, Runner: &runner.Pool{Workers: 8}},
		nil, []string{"bassi"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(apps.Workloads()) {
		t.Fatalf("%d sweep figures, want %d", len(figs), len(apps.Workloads()))
	}
}

// TestSweepCustomMachine: a machfile-registered platform resolves
// through the options' registry like a built-in, sweeps end to end, and
// an empty machine selector includes it after the Table 1 testbed.
func TestSweepCustomMachine(t *testing.T) {
	reg := machfile.NewRegistry()
	if _, err := reg.Load([]byte(`{"base": "bgl", "name": "bgl-fat", "stream_gbs": 1.8}`)); err != nil {
		t.Fatal(err)
	}
	opts := Options{Quick: true, Runner: &runner.Pool{Workers: 4}, Machines: reg}
	figs, err := Sweep(context.Background(), opts, []string{"gtc"}, []string{"bgl-fat"}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Results) != 1 {
		t.Fatalf("custom-machine sweep produced %d figures", len(figs))
	}
	if got := figs[0].Results[0].Machine; got != "bgl-fat" {
		t.Fatalf("point ran on %q, want bgl-fat", got)
	}
	// Empty selector: built-ins first, the custom platform appended.
	plan, err := PlanSweep(opts, []string{"gtc"}, nil, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	series := plan.specs[0].series
	if len(series) != len(machine.All())+1 {
		t.Fatalf("default selector swept %d machines, want %d", len(series), len(machine.All())+1)
	}
	if series[len(series)-1].spec.Name != "bgl-fat" {
		t.Fatalf("custom machine not appended: last series is %q", series[len(series)-1].spec.Name)
	}
}

// TestResolveMachinesSharedRule pins the one selector rule every
// surface (sweep, whatif, CLI, HTTP) goes through: forgiving lookup,
// repeats dropped in first-mention order, empty selector = the
// registry's full testbed.
func TestResolveMachinesSharedRule(t *testing.T) {
	got, err := ResolveMachines(nil, []string{"bgl", "BG/L", "bassi"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "BG/L" || got[1].Name != "Bassi" {
		t.Fatalf("resolved %+v, want deduped [BG/L Bassi]", got)
	}
	all, err := ResolveMachines(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(machine.All()) {
		t.Fatalf("empty selector resolved %d machines, want %d", len(all), len(machine.All()))
	}
	if _, err := ResolveMachines(nil, []string{"nosuch"}); err == nil {
		t.Error("unknown machine resolved")
	}
}

// TestFig1OrderDerivesFromRegistry checks the topology captures follow
// registry order.
func TestFig1OrderDerivesFromRegistry(t *testing.T) {
	results, err := Fig1Rendered(context.Background(), Options{Runner: &runner.Pool{Workers: 8}}, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	names := apps.Names()
	if len(results) != len(names) {
		t.Fatalf("%d topologies, want %d", len(results), len(names))
	}
	for i, r := range results {
		if r.App != names[i] {
			t.Errorf("topology %d is %q, registry says %q", i, r.App, names[i])
		}
	}
}

// TestSweepPlanPointsMatchesExecute: the count streaming consumers are
// promised (the plan's job count) equals what Execute actually
// dispatches.
func TestSweepPlanPointsMatchesExecute(t *testing.T) {
	pool := &runner.Pool{Workers: 4}
	opts := Options{Quick: true, Runner: pool}
	plan, err := PlanSweep(opts, []string{"gtc"}, []string{"bgl"}, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	want := len(plan.Jobs())
	if want != 2 {
		t.Fatalf("len(plan.Jobs()) = %d, want 2", want)
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); int(s.Points) != want {
		t.Fatalf("executed %d points, plan promised %d", s.Points, want)
	}
}

// TestSweepPlanStreamDeliversEveryPoint: streaming the plan's jobs
// covers the same cross-product, one event per point, each carrying
// provenance.
func TestSweepPlanStreamDeliversEveryPoint(t *testing.T) {
	pool := &runner.Pool{Workers: 4}
	plan, err := PlanSweep(Options{Quick: true, Runner: pool}, []string{"gtc"}, []string{"bassi"}, []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	jobs := plan.Jobs()
	seen := map[int]bool{}
	for ev := range pool.Stream(context.Background(), jobs) {
		if ev.Err != nil {
			t.Fatalf("stream point failed: %v", ev.Err)
		}
		if ev.Result.App != "GTC" {
			t.Fatalf("stream point %+v from the wrong workload", ev.Result)
		}
		if ev.Served != runner.ServedSim {
			t.Fatalf("cold point %d served from %s, want simulated", ev.Index, ev.Served)
		}
		if seen[ev.Index] {
			t.Fatalf("point %d delivered twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d stream events, plan promised %d", len(seen), len(jobs))
	}
}

// TestSweepCancelMidRunReturnsPromptlyWithoutLeaks: cancelling a sweep
// mid-run must stop scheduling, surface the cancellation, and leave no
// worker goroutines behind (checked under -race in CI).
func TestSweepCancelMidRunReturnsPromptlyWithoutLeaks(t *testing.T) {
	// Warm simmpi's pooled cancellation watchers: they park in their
	// pool after a run by design, so a cold baseline would misread the
	// first cancellable runs' pooled goroutines as a leak. Two worlds
	// are held alive concurrently to warm one watcher per pool worker.
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	warmDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			wctx, wcancel := context.WithCancel(context.Background())
			defer wcancel()
			_, err := simmpi.RunContext(wctx, simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
				entered <- struct{}{}
				<-release
			})
			warmDone <- err
		}()
	}
	<-entered
	<-entered
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-warmDone; err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a watcher as soon as the first point lands in the
	// pool's stats — provably mid-sweep.
	pool := &runner.Pool{Workers: 2}
	go func() {
		for pool.Stats().Points == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := Sweep(ctx, Options{Quick: true, Runner: pool},
		nil, nil, []int{64, 128, 256}) // full registry × testbed: plenty to cancel
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep took %s to return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked by cancelled sweep: %d before, %d after", before, runtime.NumGoroutine())
}
