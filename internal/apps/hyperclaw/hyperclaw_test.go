package hyperclaw

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/machine"
	"repro/internal/simmpi"
)

func tinyCfg() Config {
	cfg := DefaultConfig(1)
	cfg.NomBase = [3]int{64, 8, 4}
	cfg.ActBase = [3]int{64, 8, 4}
	cfg.Ratios = []int{2}
	cfg.Steps = 2
	cfg.MaxBoxCells = 256
	cfg.NomMaxBoxCells = 256
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := tinyCfg()
	bad.ActBase = [3]int{2, 8, 4}
	if err := bad.validate(); err == nil {
		t.Error("tiny base accepted")
	}
	bad = tinyCfg()
	bad.Ratios = []int{1}
	if err := bad.validate(); err == nil {
		t.Error("ratio 1 accepted")
	}
	bad = tinyCfg()
	bad.CFL = 2
	if err := bad.validate(); err == nil {
		t.Error("CFL 2 accepted")
	}
}

func TestPrimConservedRoundTrip(t *testing.T) {
	q := conserved(1.3, 0.5, -0.2, 0.1, 2.5, 0.4)
	pr := toPrim(q[:])
	if math.Abs(pr.rho-1.3) > 1e-12 || math.Abs(pr.u-0.5) > 1e-12 ||
		math.Abs(pr.p-2.5) > 1e-12 || math.Abs(pr.y-0.4) > 1e-12 {
		t.Errorf("round trip lost state: %+v", pr)
	}
	if pr.c <= 0 {
		t.Error("nonpositive sound speed")
	}
}

func TestGammaOfMixing(t *testing.T) {
	if gammaOf(0) != GammaAir || gammaOf(1) != GammaHe {
		t.Error("pure-species gamma wrong")
	}
	if g := gammaOf(0.5); g <= GammaAir || g >= GammaHe {
		t.Errorf("mixed gamma %g outside bounds", g)
	}
	if gammaOf(-3) != GammaAir || gammaOf(7) != GammaHe {
		t.Error("gamma not clamped")
	}
}

func TestHLLConsistency(t *testing.T) {
	// For identical left/right states the HLL flux equals the exact flux.
	q := conserved(1.2, 0.3, -0.1, 0.2, 1.7, 0.25)
	var fh, fe [NFields]float64
	for d := 0; d < 3; d++ {
		hllFlux(q[:], q[:], d, fh[:])
		flux(q[:], d, fe[:])
		for f := 0; f < NFields; f++ {
			if math.Abs(fh[f]-fe[f]) > 1e-12 {
				t.Errorf("dim %d field %d: HLL %g, exact %g", d, f, fh[f], fe[f])
			}
		}
	}
}

func TestRankineHugoniotNumbers(t *testing.T) {
	// The precomputed Mach 1.25 post-shock state.
	if math.Abs(postRho-1.4286) > 0.01 {
		t.Errorf("post-shock density %g, want ≈1.429", postRho)
	}
	if math.Abs(postP-1.6563) > 0.01 {
		t.Errorf("post-shock pressure %g, want ≈1.656", postP)
	}
	if postU <= 0 {
		t.Errorf("post-shock velocity %g, want positive", postU)
	}
}

func TestPatchPackUnpackRoundTrip(t *testing.T) {
	b := amr.NewBox([3]int{2, 1, 0}, [3]int{6, 4, 3})
	p := NewPatch(b)
	p.Fill(func(i, j, k int) [NFields]float64 {
		var q [NFields]float64
		for f := 0; f < NFields; f++ {
			q[f] = float64(f*1000 + i*100 + j*10 + k)
		}
		return q
	})
	region := b
	data := p.PackRegionInto(region, make([]float64, 0, NFields*region.Size()))
	q := NewPatch(b)
	q.UnpackRegion(region, data)
	for f := 0; f < NFields; f++ {
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					if p.At(f, i, j, k) != q.At(f, i, j, k) {
						t.Fatalf("mismatch at %d,%d,%d,%d", f, i, j, k)
					}
				}
			}
		}
	}
}

func TestHierarchyRefinesShockAndBubble(t *testing.T) {
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 2}, func(r *simmpi.Rank) {
		st, err := NewState(r, tinyCfg())
		if err != nil {
			panic(err)
		}
		if st.Levels() < 2 {
			t.Errorf("no refinement level created")
			return
		}
		if st.LevelBoxes(1) == 0 {
			t.Error("refinement level has no boxes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMassConservedWithReflectingWalls(t *testing.T) {
	// With solid walls nothing leaves the domain: the base-level mass
	// integral (fine data averaged down) must be conserved to the
	// accuracy of the unrefluxed coarse-fine coupling.
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 2}, func(r *simmpi.Rank) {
		cfg := tinyCfg()
		cfg.BC = Reflect
		cfg.Steps = 3
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		m0 := st.GlobalTotals()[QRho]
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		m1 := st.GlobalTotals()[QRho]
		if rel := math.Abs(m1-m0) / m0; rel > 0.02 {
			t.Errorf("mass drifted %.3g%% (from %g to %g)", rel*100, m0, m1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleLevelMassExactlyConserved(t *testing.T) {
	// Without refinement and with walls, the finite-volume update is
	// exactly conservative.
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 2}, func(r *simmpi.Rank) {
		cfg := tinyCfg()
		cfg.Ratios = nil
		cfg.BC = Reflect
		cfg.Steps = 4
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		m0 := st.GlobalTotals()[QRho]
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		m1 := st.GlobalTotals()[QRho]
		if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
			t.Errorf("single-level mass drifted by %.3g", rel)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShockPropagatesRight(t *testing.T) {
	// The density jump must move in +x over time.
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		cfg := tinyCfg()
		cfg.Ratios = nil
		cfg.Steps = 8
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		shockPos := func() int {
			for i := 0; i < cfg.ActBase[0]; i++ {
				if st.ProbeDensity(i, cfg.ActBase[1]/2, cfg.ActBase[2]/2) < 1.2 {
					return i
				}
			}
			return cfg.ActBase[0]
		}
		x0 := shockPos()
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		x1 := shockPos()
		if x1 <= x0 {
			t.Errorf("shock did not advance: %d → %d", x0, x1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSerial checks the full AMR exchange machinery:
// identical hierarchies and probe values on 1 and 4 ranks.
func TestParallelMatchesSerial(t *testing.T) {
	probe := func(p int) float64 {
		var v float64
		_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
			cfg := tinyCfg()
			cfg.Steps = 2
			st, err := NewState(r, cfg)
			if err != nil {
				panic(err)
			}
			for i := 0; i < cfg.Steps; i++ {
				st.Step()
			}
			local := st.ProbeDensity(10, 4, 2)
			// Exactly one rank owns the probe cell; share it.
			sum := r.AllreduceScalar(r.World(), local, simmpi.OpSum)
			if r.ID() == 0 {
				v = sum
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s, par := probe(1), probe(4)
	if s == 0 || par == 0 {
		t.Fatal("probe not found")
	}
	if s != par {
		t.Errorf("serial density %.17g != 4-rank %.17g", s, par)
	}
}

func TestLowEfficiencyBand(t *testing.T) {
	// Figure 7b: all platforms sit at a few percent of peak; Phoenix
	// under 1%.
	pct := func(m machine.Spec) float64 {
		cfg := tinyCfg()
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.PercentOfPeak(m.PeakGFs)
	}
	if got := pct(machine.Jacquard); got < 1 || got > 12 {
		t.Errorf("Jacquard %%peak %.2f outside the AMR band", got)
	}
	if got := pct(machine.Phoenix); got > 2 {
		t.Errorf("Phoenix %%peak %.2f, paper reports 0.8%%", got)
	}
}

func TestOptimizationAblations(t *testing.T) {
	// §8.1: hashed intersection and pointer knapsack must not be slower
	// than the originals, and on Phoenix the difference must be large.
	wall := func(m machine.Spec, naive, copying bool) float64 {
		cfg := tinyCfg()
		cfg.NomBase = [3]int{2048, 64, 32} // large nominal → many boxes
		cfg.NomMaxBoxCells = 32 * 32 * 32 / 16
		cfg.NaiveIntersect = naive
		cfg.CopyingKnapsack = copying
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	optim := wall(machine.Phoenix, false, false)
	orig := wall(machine.Phoenix, true, true)
	if orig <= optim {
		t.Errorf("original knapsack+regrid (%g) not slower than optimised (%g)", orig, optim)
	}
	if ratio := orig / optim; ratio < 1.2 {
		t.Errorf("X1E optimisation gain %.2fx too small for the §8.1 story", ratio)
	}
}

func TestManyCommunicatingPartners(t *testing.T) {
	// Figure 1f: AMR gives each processor "a surprisingly large number of
	// communicating partners" — more than the 6 of a stencil code.
	// Verified via per-rank message counting at modest P.
	rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages == 0 {
		t.Fatal("no point-to-point traffic recorded")
	}
}

// TestTrajectoryReplayBitIdentical pins the trajectory cache's hard
// contract: a metadata-only replay at a (physics, nprocs) point produces
// exactly the Report a full-physics run produces. A run on Bassi records
// the trajectory; a Jaguar run then replays it, under the recorded
// configuration and under each variant that differs only in cost fields
// (a doubled NomBase and every amropt rung's), without recording
// another; resetting the cache and re-running the variant on Jaguar
// full-physics must match the replayed Report in every field. At P=64
// the run includes a regrid that replaces existing levels, and every
// exchange schedule kind has pairs that cross ranks.
func TestTrajectoryReplayBitIdentical(t *testing.T) {
	small := DefaultConfig(8)
	small.Steps = 3
	// The P=64 case refines by 2 twice instead of 2 then 4, which keeps
	// each of its full runs near half a second.
	wide := DefaultConfig(64)
	wide.Steps = 3
	wide.Ratios = []int{2, 2}
	for _, c := range []struct {
		procs int
		cfg   Config
	}{{8, small}, {64, wide}} {
		procs, cfg := c.procs, c.cfg
		nomBase := cfg
		nomBase.NomBase[0] *= 2
		variants := []Config{cfg, nomBase}
		for i := range amroptLadder {
			rung := amroptConfig(procs, i)
			v := cfg
			v.NomBase, v.NomMaxBoxCells = rung.NomBase, rung.NomMaxBoxCells
			v.NaiveIntersect, v.CopyingKnapsack = rung.NaiveIntersect, rung.CopyingKnapsack
			variants = append(variants, v)
		}
		run := func(spec machine.Spec, cfg Config) *simmpi.Report {
			rep, err := Run(context.Background(), simmpi.Config{Machine: spec, Procs: procs}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		ResetTrajectoryCache()
		run(machine.Bassi, cfg) // records
		if procs == 64 {
			checkCrossRankKinds(t, cfg, procs)
		}
		replays := make([]*simmpi.Report, len(variants))
		for vi, v := range variants {
			replays[vi] = run(machine.Jaguar, v) // replays
			trajMu.Lock()
			recorded := len(trajCache)
			trajMu.Unlock()
			if recorded != 1 {
				t.Fatalf("P=%d variant %d: %d trajectories recorded, want the one it replays", procs, vi, recorded)
			}
		}
		for vi, v := range variants {
			ResetTrajectoryCache()
			fresh := run(machine.Jaguar, v) // records from scratch
			replayed := replays[vi]
			if replayed.Wall != fresh.Wall ||
				replayed.TotalFlops != fresh.TotalFlops ||
				replayed.CommFrac != fresh.CommFrac ||
				replayed.MaxCommFrac != fresh.MaxCommFrac ||
				replayed.BytesSent != fresh.BytesSent ||
				replayed.Messages != fresh.Messages ||
				replayed.LoadImbalance != fresh.LoadImbalance {
				t.Fatalf("P=%d variant %d: replayed report diverges from full run:\nreplay: %+v\nfresh:  %+v", procs, vi, replayed, fresh)
			}
			if len(replayed.Phases) != len(fresh.Phases) {
				t.Fatalf("P=%d variant %d: phase sets differ: %v vs %v", procs, vi, replayed.Phases, fresh.Phases)
			}
			for name, val := range fresh.Phases {
				if replayed.Phases[name] != val {
					t.Fatalf("P=%d variant %d: phase %q: replay %v, fresh %v", procs, vi, name, replayed.Phases[name], val)
				}
			}
		}
	}
}

// TestTrajectoryKeyPhysicsOnly classifies every Config field as a
// physics input, which must be in the trajectory key, or a cost input,
// which must not be: a new field fails here until it is classified. A
// changed physics field gives a distinct key; a changed cost field gives
// the same one.
func TestTrajectoryKeyPhysicsOnly(t *testing.T) {
	base := DefaultConfig(16)
	change := map[string]func(*Config){
		"ActBase":        func(c *Config) { c.ActBase[1]++ },
		"Ratios":         func(c *Config) { c.Ratios = []int{2, 2} },
		"Steps":          func(c *Config) { c.Steps++ },
		"RegridInterval": func(c *Config) { c.RegridInterval++ },
		"TagThreshold":   func(c *Config) { c.TagThreshold *= 1.5 },
		"MaxBoxCells":    func(c *Config) { c.MaxBoxCells *= 2 },
		"BC":             func(c *Config) { c.BC = Reflect },
		"CFL":            func(c *Config) { c.CFL /= 2 },

		"NomBase":         func(c *Config) { c.NomBase[0] *= 2 },
		"NomMaxBoxCells":  func(c *Config) { c.NomMaxBoxCells /= 2 },
		"NaiveIntersect":  func(c *Config) { c.NaiveIntersect = !c.NaiveIntersect },
		"CopyingKnapsack": func(c *Config) { c.CopyingKnapsack = !c.CopyingKnapsack },
	}
	keyFields := map[string]bool{}
	pt := reflect.TypeOf(physics{})
	for i := 0; i < pt.NumField(); i++ {
		keyFields[pt.Field(i).Name] = true
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		mutate, ok := change[name]
		if !ok {
			t.Errorf("Config.%s is unclassified: say whether the physics reads it", name)
			continue
		}
		c := base
		mutate(&c)
		if reflect.DeepEqual(c, base) {
			t.Errorf("Config.%s: the test's change leaves the config unchanged", name)
		}
		if distinct := trajKey(c, 16) != trajKey(base, 16); distinct != keyFields[name] {
			t.Errorf("Config.%s: in trajectory key %v, but changing it gives a distinct key %v", name, keyFields[name], distinct)
		}
	}
	if trajKey(base, 16) == trajKey(base, 32) {
		t.Error("the rank count is not in the trajectory key")
	}
}

// TestTrajectoryCacheBounded fills the trajectory cache past its limit
// while the first recording is still in flight. The map never holds
// more than trajCacheLimit entries, and the recording whose entry was
// cleared still publishes its trajectory to the waiters holding it.
func TestTrajectoryCacheBounded(t *testing.T) {
	ResetTrajectoryCache()
	defer ResetTrajectoryCache()
	ctx := context.Background()
	_, first := acquireTrajectory(ctx, "first")
	if first == nil {
		t.Fatal("an unseen key handed out no recorder")
	}
	trajMu.Lock()
	waiting := trajCache["first"] // what a concurrent waiter holds
	trajMu.Unlock()
	for i := 0; i < 2*trajCacheLimit; i++ {
		_, rec := acquireTrajectory(ctx, fmt.Sprintf("key%d", i))
		if rec == nil {
			t.Fatalf("key%d: an unseen key handed out no recorder", i)
		}
		rec.publish(true)
		trajMu.Lock()
		n := len(trajCache)
		trajMu.Unlock()
		if n > trajCacheLimit {
			t.Fatalf("after %d inserts the cache holds %d entries, limit %d", i+2, n, trajCacheLimit)
		}
	}
	trajMu.Lock()
	cleared := trajCache["first"] != waiting
	trajMu.Unlock()
	if !cleared {
		t.Fatal("the in-flight entry survived every clear; the test checked nothing")
	}
	first.publish(true)
	select {
	case <-waiting.done:
	default:
		t.Fatal("publishing a cleared entry did not release its waiters")
	}
	if waiting.traj != first.traj {
		t.Fatal("waiters on a cleared entry did not receive its trajectory")
	}
}

// checkCrossRankKinds replays the recorded trajectory at (cfg, procs)
// and fails unless every exchange schedule kind received a message on
// some rank, so the replay comparison covers all five kinds. Each rank
// inspects its own schedules after setup and after every step: a regrid
// clears the rank's cache, and the seed and recopy schedules live only
// until the next one.
func checkCrossRankKinds(t *testing.T, cfg Config, procs int) {
	t.Helper()
	traj, rec := acquireTrajectory(context.Background(), trajKey(cfg, procs))
	if traj == nil || rec != nil {
		t.Fatal("no recorded trajectory to replay")
	}
	var mu sync.Mutex
	seen := map[pairKind]bool{}
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: procs}, func(r *simmpi.Rank) {
		st, err := newState(r, cfg, traj, nil)
		if err != nil {
			panic(err)
		}
		note := func() {
			mu.Lock()
			defer mu.Unlock()
			for k, sc := range st.scheds {
				if len(sc.inOf(r.ID())) > 0 {
					seen[k.kind] = true
				}
			}
		}
		note()
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
			note()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind := pairProlong; kind <= pairRecopy; kind++ {
		if !seen[kind] {
			t.Errorf("P=%d: schedule kind %d never crosses ranks", procs, kind)
		}
	}
}
