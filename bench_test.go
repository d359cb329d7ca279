// Package repro's root benchmarks regenerate each table and figure of the
// paper at reduced concurrency — one benchmark per artifact, so
//
//	go test -bench=. -benchmem
//
// exercises the full reproduction pipeline. Full-scale runs go through
// cmd/petasim.
//
// Every body lives in internal/benchtraj, the benchmark-trajectory
// subsystem: `petasim bench` measures the same suite in-process and
// records it as a BENCH_<pr>.json trajectory point, so the numbers here
// and the gated trajectory can never drift apart. Each suite body calls
// b.ReportAllocs and builds the pools/caches it mutates itself (fresh
// per iteration where sharing would let one iteration warm the next),
// so -benchmem numbers are attributable to the measured body.
package repro

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/hyperclaw"
	"repro/internal/benchtraj"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// suite returns the shared benchmark body for one trajectory entry,
// bound to the test's context (go test cancels it on interrupt/timeout,
// which aborts the in-flight simulations cleanly).
func suite(tb testing.TB, name string) func(b *testing.B) {
	e, ok := benchtraj.Lookup(name)
	if !ok {
		tb.Fatalf("benchtraj suite has no entry %q", name)
	}
	return func(b *testing.B) { e.Bench(b.Context(), b) }
}

// BenchmarkTable1Stream regenerates the EP-STREAM triad column.
func BenchmarkTable1Stream(b *testing.B) { suite(b, "Table1Stream")(b) }

// BenchmarkTable1PingPong regenerates the MPI latency/bandwidth columns.
func BenchmarkTable1PingPong(b *testing.B) { suite(b, "Table1PingPong")(b) }

// BenchmarkTable2 regenerates the application overview.
func BenchmarkTable2(b *testing.B) { suite(b, "Table2")(b) }

// BenchmarkFig1CommTopo captures the six communication topologies.
func BenchmarkFig1CommTopo(b *testing.B) { suite(b, "Fig1CommTopo")(b) }

// BenchmarkFig2GTC runs one Figure 2 weak-scaling point.
func BenchmarkFig2GTC(b *testing.B) { suite(b, "Fig2GTC")(b) }

// BenchmarkFig3ELBM3D runs one Figure 3 strong-scaling point.
func BenchmarkFig3ELBM3D(b *testing.B) { suite(b, "Fig3ELBM3D")(b) }

// BenchmarkFig4Cactus runs one Figure 4 weak-scaling point.
func BenchmarkFig4Cactus(b *testing.B) { suite(b, "Fig4Cactus")(b) }

// BenchmarkFig5BeamBeam3D runs one Figure 5 strong-scaling point.
func BenchmarkFig5BeamBeam3D(b *testing.B) { suite(b, "Fig5BeamBeam3D")(b) }

// BenchmarkFig6PARATEC runs one Figure 6 strong-scaling point.
func BenchmarkFig6PARATEC(b *testing.B) { suite(b, "Fig6PARATEC")(b) }

// BenchmarkFig7HyperCLaw runs one Figure 7 weak-scaling point.
func BenchmarkFig7HyperCLaw(b *testing.B) { suite(b, "Fig7HyperCLaw")(b) }

// BenchmarkFig8Summary regenerates the cross-application summary at
// reduced concurrency.
func BenchmarkFig8Summary(b *testing.B) { suite(b, "Fig8Summary")(b) }

// BenchmarkAllFiguresSerial is the one-worker baseline for the figure
// cross-product: the scheduling seam the full cmd/petasim run goes
// through, with a fresh single-worker pool per iteration so no state
// (singleflight group, simulation-slot semaphore) carries across
// iterations.
func BenchmarkAllFiguresSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hyperclaw.ResetTrajectoryCache()
		apps.ResetLogCache()
		opts := experiments.Options{Quick: true, MaxProcs: 64,
			Runner: &runner.Pool{Workers: 1}}
		if figs, err := experiments.AllFigures(b.Context(), opts); err != nil || len(figs) != 6 {
			b.Fatalf("figs=%d err=%v", len(figs), err)
		}
	}
}

// BenchmarkAllFiguresParallel fans the same cross-product across the
// host's processors — the trajectory's headline cold-AllFigures body.
func BenchmarkAllFiguresParallel(b *testing.B) { suite(b, "AllFiguresCold")(b) }

// BenchmarkAllFiguresCached measures a fully warm cache: every point is
// served from disk, so this bounds the per-point cache overhead.
func BenchmarkAllFiguresCached(b *testing.B) { suite(b, "AllFiguresCached")(b) }

// BenchmarkWhatIfPlan measures plan expansion alone: selector
// validation, perturbed-spec construction, and grid layout — the work
// every whatif request pays before any simulation or cache lookup.
func BenchmarkWhatIfPlan(b *testing.B) { suite(b, "WhatIfPlan")(b) }

// BenchmarkWhatIfWarm measures a fully warm what-if scan: every grid
// point served from the memory tier, so this bounds the per-study
// overhead of key hashing, cache lookups, and the tornado/frontier
// reduction.
func BenchmarkWhatIfWarm(b *testing.B) { suite(b, "WhatIfWarm")(b) }

// BenchmarkGTCOptStudy regenerates the §3.1 optimisation ladder.
func BenchmarkGTCOptStudy(b *testing.B) { suite(b, "GTCOptStudy")(b) }

// BenchmarkAMROptStudy regenerates the §8.1 optimisation comparison.
func BenchmarkAMROptStudy(b *testing.B) { suite(b, "AMROptStudy")(b) }

// BenchmarkSimP2PThroughput measures the simmpi point-to-point path.
func BenchmarkSimP2PThroughput(b *testing.B) { suite(b, "SimP2PThroughput")(b) }

// BenchmarkSimAllreduce256 measures the collective rendezvous at width.
func BenchmarkSimAllreduce256(b *testing.B) { suite(b, "SimAllreduce256")(b) }

// BenchmarkSimCollectives64 exercises the full collective family on one
// 64-rank world.
func BenchmarkSimCollectives64(b *testing.B) { suite(b, "SimCollectives64")(b) }

// BenchmarkSimWorldSpawn1024 measures world startup/teardown cost.
func BenchmarkSimWorldSpawn1024(b *testing.B) { suite(b, "SimWorldSpawn1024")(b) }

// TestBenchSuiteNames pins the suite contract: every trajectory entry
// has a body, and the headline entry exists, so `go test -bench` covers
// exactly what `petasim bench` records.
func TestBenchSuiteNames(t *testing.T) {
	for _, e := range benchtraj.Suite() {
		if e.Bench == nil {
			t.Errorf("suite entry %q has no body", e.Name)
		}
	}
	if _, ok := benchtraj.Lookup(benchtraj.HeadlineEntry); !ok {
		t.Errorf("headline entry %q missing from suite", benchtraj.HeadlineEntry)
	}
}
