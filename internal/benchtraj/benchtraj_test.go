package benchtraj

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pingpong"
)

// sink keeps tinySuite's allocation observable by -benchmem accounting.
var sink []byte

// tinySuite is a fast stand-in for the curated suite so Run's harness
// can be tested without simulating figures.
func tinySuite() []Entry {
	return []Entry{
		{"Alpha", func(_ context.Context, b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = make([]byte, 128)
			}
		}},
		{HeadlineEntry, func(_ context.Context, b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				time.Sleep(time.Microsecond)
			}
		}},
	}
}

func TestRunRecordsSuite(t *testing.T) {
	rec, err := Run(context.Background(), RunOptions{
		PR: 6, Benchtime: "10x", Suite: tinySuite(),
		Now: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != SchemaVersion {
		t.Fatalf("schema %d, want %d", rec.Schema, SchemaVersion)
	}
	if rec.PR != 6 {
		t.Fatalf("pr %d, want 6", rec.PR)
	}
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rec.Benchmarks))
	}
	alpha, ok := rec.Lookup("Alpha")
	if !ok {
		t.Fatal("Alpha not recorded")
	}
	if alpha.Iterations <= 0 || alpha.NsPerOp <= 0 {
		t.Fatalf("bad Alpha measurement: %+v", alpha)
	}
	if alpha.AllocsPerOp < 1 {
		t.Fatalf("Alpha allocs/op = %d, want >= 1 (ReportAllocs must flow through)", alpha.AllocsPerOp)
	}
	// The headline must be captured from the designated suite entry.
	if rec.Headline.ColdAllFiguresNs <= 0 {
		t.Fatalf("headline not recorded: %+v", rec.Headline)
	}
}

func TestRunFilter(t *testing.T) {
	rec, err := Run(context.Background(), RunOptions{Benchtime: "5x", Suite: tinySuite(), Filter: "^Alpha$"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 1 || rec.Benchmarks[0].Name != "Alpha" {
		t.Fatalf("filter kept %v", rec.Benchmarks)
	}
	if rec.Headline.ColdAllFiguresNs != 0 {
		t.Fatal("filtered-out headline entry still set the headline")
	}
	if _, err := Run(context.Background(), RunOptions{Suite: tinySuite(), Filter: "NoSuchEntry"}); err == nil {
		t.Fatal("empty selection should fail, not record an empty trajectory point")
	}
}

// TestRunHonorsCancellation pins the ctx plumbing: a cancelled recording
// stops at the entry boundary instead of measuring the rest of the suite.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, RunOptions{Benchtime: "1x", Suite: tinySuite()}); err == nil {
		t.Fatal("cancelled recording should fail, not silently measure the suite")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := &Record{
		Schema: SchemaVersion, PR: 6, GoVersion: "go-test",
		Headline:   Headline{ColdAllFiguresNs: 123456},
		Benchmarks: []Benchmark{{Name: "Alpha", Iterations: 3, NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 2}},
	}
	path := filepath.Join(dir, "BENCH_6.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.PR != 6 || got.Headline.ColdAllFiguresNs != 123456 || len(got.Benchmarks) != 1 {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestNewestPicksHighestPR(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_9.json", "notes.json"} {
		rec := &Record{Schema: SchemaVersion}
		if err := rec.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Newest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("Newest = %q, want BENCH_10.json (numeric, not lexicographic)", got)
	}

	empty := t.TempDir()
	if got, err := Newest(empty); err != nil || got != "" {
		t.Fatalf("Newest(empty) = %q, %v; want \"\", nil", got, err)
	}
}

func TestTrajectorySorted(t *testing.T) {
	dir := t.TempDir()
	for _, pr := range []int{10, 2, 9} {
		rec := &Record{Schema: SchemaVersion, PR: pr}
		if err := rec.WriteFile(filepath.Join(dir, "BENCH_"+itoa(pr)+".json")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Trajectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].PR != 2 || recs[1].PR != 9 || recs[2].PR != 10 {
		t.Fatalf("trajectory order wrong: %v", prs(recs))
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func prs(recs []*Record) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.PR
	}
	return out
}

// baselineRecord builds a reference record for comparison tests.
func baselineRecord() *Record {
	return &Record{
		Schema:   SchemaVersion,
		PR:       5,
		Headline: Headline{ColdAllFiguresNs: 10e9},
		Benchmarks: []Benchmark{
			{Name: "Hot", NsPerOp: 1e6, AllocsPerOp: 1000},
			{Name: "Micro", NsPerOp: 100, AllocsPerOp: 8},
		},
	}
}

// TestGateFailsOnRegression demonstrates the CI contract: a benchmark
// (and the headline) regressing past threshold is detected and reported
// as a regression — the condition `petasim bench -gate` turns into a
// nonzero exit.
func TestGateFailsOnRegression(t *testing.T) {
	old := baselineRecord()
	bad := &Record{
		Schema:   SchemaVersion,
		PR:       6,
		Headline: Headline{ColdAllFiguresNs: 20e9}, // 2× slower
		Benchmarks: []Benchmark{
			{Name: "Hot", NsPerOp: 2e6, AllocsPerOp: 1000}, // 2× slower
			{Name: "Micro", NsPerOp: 100, AllocsPerOp: 8},
		},
	}
	deltas, err := Compare(old, bad, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (headline + Hot ns/op), got %v", regs)
	}
	names := map[string]bool{}
	for _, d := range regs {
		names[d.Name+" "+d.Metric] = true
	}
	if !names["(headline) cold_all_figures_ns"] || !names["Hot ns/op"] {
		t.Fatalf("wrong regression set: %v", regs)
	}
}

func TestGatePassesWithinNoise(t *testing.T) {
	old := baselineRecord()
	ok := &Record{
		Schema:   SchemaVersion,
		PR:       6,
		Headline: Headline{ColdAllFiguresNs: 11e9}, // +10%, within 30%
		Benchmarks: []Benchmark{
			{Name: "Hot", NsPerOp: 1.2e6, AllocsPerOp: 1050},  // +20% ns, +5% allocs
			{Name: "Micro", NsPerOp: 1000, AllocsPerOp: 8},    // 10× but under MinNs floor
			{Name: "NewEntry", NsPerOp: 5e6, AllocsPerOp: 10}, // no baseline: skipped
		},
	}
	deltas, err := Compare(old, ok, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("noise-level changes flagged as regressions: %v", regs)
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	old := baselineRecord()
	bad := &Record{
		Schema:   SchemaVersion,
		Headline: Headline{ColdAllFiguresNs: 10e9},
		Benchmarks: []Benchmark{
			{Name: "Hot", NsPerOp: 1e6, AllocsPerOp: 2000}, // 2× allocs
		},
	}
	deltas, err := Compare(old, bad, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

// TestGateSimAllocsHaveNoFloor pins the simmpi-substrate alloc gate: a
// Sim*-prefixed entry regressing >20% in allocs/op fails even below the
// general MinAllocs=64 exemption, while an equally small non-Sim entry
// stays exempt. The pooled core's 3-alloc world spawn must not creep
// back under cover of the noise floor.
func TestGateSimAllocsHaveNoFloor(t *testing.T) {
	old := &Record{
		Schema:   SchemaVersion,
		Headline: Headline{ColdAllFiguresNs: 10e9},
		Benchmarks: []Benchmark{
			{Name: "SimWorldSpawn1024", NsPerOp: 1e5, AllocsPerOp: 3},
			{Name: "Micro", NsPerOp: 100, AllocsPerOp: 3},
		},
	}
	bad := &Record{
		Schema:   SchemaVersion,
		Headline: Headline{ColdAllFiguresNs: 10e9},
		Benchmarks: []Benchmark{
			{Name: "SimWorldSpawn1024", NsPerOp: 1e5, AllocsPerOp: 4}, // +33%
			{Name: "Micro", NsPerOp: 100, AllocsPerOp: 4},             // +33%, exempt
		},
	}
	deltas, err := Compare(old, bad, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "SimWorldSpawn1024" || regs[0].Metric != "allocs/op" {
		t.Fatalf("want exactly the Sim* allocs/op regression, got %v", regs)
	}
}

func TestCompareRejectsSchemaMismatch(t *testing.T) {
	old := baselineRecord()
	old.Schema = SchemaVersion + 1
	if _, err := Compare(old, baselineRecord(), DefaultThresholds()); err == nil {
		t.Fatal("cross-schema comparison must fail")
	}
}

// TestPingPongAllocsBounded pins the pooled-messaging win on the
// Table 1 body: one full ping-pong sweep across every machine must stay
// under 100 allocations (the goroutine-per-rank core needed ~2.5k).
func TestPingPongAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per sync event")
	}
	body := func() {
		for _, m := range machine.All() {
			if _, err := pingpong.Measure(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
	}
	body() // warm the scheduler's host pool and the worlds' arenas
	if allocs := testing.AllocsPerRun(5, body); allocs >= 100 {
		t.Errorf("Table 1 ping-pong sweep allocates %.0f/op, want < 100", allocs)
	}
}
