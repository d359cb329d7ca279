package cactus

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func testCfg() Config {
	return Config{
		NominalPerProc: 12, ActualPerProc: 12,
		Steps: 3, Coupling: 0.2, CFL: 0.25,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NominalPerProc: 4, ActualPerProc: 8, Steps: 1, CFL: 0.2},
		{NominalPerProc: 8, ActualPerProc: 2, Steps: 1, CFL: 0.2},
		{NominalPerProc: 8, ActualPerProc: 8, Steps: 0, CFL: 0.2},
		{NominalPerProc: 8, ActualPerProc: 8, Steps: 1, CFL: 2},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLinearStandingWaveOscillates(t *testing.T) {
	// With coupling 0 and periodic boundaries, a sin(2πx) mode in φ obeys
	// the wave equation: after a quarter period φ ≈ 0 everywhere, and the
	// energy is conserved.
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		cfg := Config{NominalPerProc: 16, ActualPerProc: 16, Steps: 1,
			Coupling: 0, Periodic: true, CFL: 0.25}
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		st.SetLinearMode()
		amp0 := st.Probe(4, 0, 0)
		// One step first so ghosts are synced before measuring the
		// discrete energy baseline.
		st.Step()
		e0 := st.Energy()
		// Quarter period of the k=2π mode: T/4 = (2π/ω)/4 with ω = 2π.
		quarter := 0.25
		steps := int(quarter/st.dt) - 1
		for i := 0; i < steps; i++ {
			st.Step()
		}
		ampQ := st.Probe(4, 0, 0)
		if math.Abs(ampQ) > 0.15*math.Abs(amp0) {
			t.Errorf("quarter-period amplitude %g not near zero (from %g)", ampQ, amp0)
		}
		e1 := st.Energy()
		if math.Abs(e1-e0)/e0 > 0.05 {
			t.Errorf("linear periodic energy drifted %g → %g", e0, e1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStabilityNoNaNs(t *testing.T) {
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, func(r *simmpi.Rank) {
		st, err := NewState(r, testCfg())
		if err != nil {
			panic(err)
		}
		for i := 0; i < 6; i++ {
			st.Step()
		}
		if e := st.Energy(); math.IsNaN(e) || math.IsInf(e, 0) {
			t.Errorf("rank %d energy is %g", r.ID(), e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRadiationBCDampsEnergy(t *testing.T) {
	// An outgoing pulse with radiation boundaries must lose energy once it
	// reaches the boundary; with periodic boundaries it does not.
	run := func(periodic bool) float64 {
		var eFinal float64
		_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
			cfg := Config{NominalPerProc: 16, ActualPerProc: 16, Steps: 1,
				Coupling: 0, Periodic: periodic, CFL: 0.25}
			st, err := NewState(r, cfg)
			if err != nil {
				panic(err)
			}
			steps := int(1.2 / st.dt) // enough for the pulse to cross
			for i := 0; i < steps; i++ {
				st.Step()
			}
			eFinal = st.Energy()
		})
		if err != nil {
			t.Fatal(err)
		}
		return eFinal
	}
	open, closed := run(false), run(true)
	if open >= closed {
		t.Errorf("radiating domain kept more energy (%g) than periodic (%g)", open, closed)
	}
}

// TestParallelMatchesSerial checks decomposition correctness on a periodic
// domain (bitwise identical evolution at a probe point).
func TestParallelMatchesSerial(t *testing.T) {
	// Weak-scaling semantics: keep the GLOBAL grid fixed at 8³ by giving
	// the 8-rank run a 4³ per-processor block.
	probe := func(p, perProc int) float64 {
		var val float64
		_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
			cfg := Config{NominalPerProc: perProc, ActualPerProc: perProc, Steps: 3,
				Coupling: 0.3, Periodic: true, CFL: 0.2}
			st, err := NewState(r, cfg)
			if err != nil {
				panic(err)
			}
			for i := 0; i < cfg.Steps; i++ {
				st.Step()
			}
			ox, oy, oz := st.Dec().GlobalOrigin(r.ID())
			if ox == 0 && oy == 0 && oz == 0 {
				val = st.Probe(1, 1, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return val
	}
	if s, par := probe(1, 8), probe(8, 4); s != par {
		t.Errorf("serial %v != 8-rank %v", s, par)
	}
}

func TestNonlinearTermActive(t *testing.T) {
	// The nonlinear coupling must change the evolution (guards against
	// silently dropping the BSSN-style cross terms).
	run := func(lam float64) float64 {
		var v float64
		_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
			cfg := Config{NominalPerProc: 8, ActualPerProc: 8, Steps: 4,
				Coupling: lam, Periodic: true, CFL: 0.2}
			st, err := NewState(r, cfg)
			if err != nil {
				panic(err)
			}
			for i := 0; i < cfg.Steps; i++ {
				st.Step()
			}
			v = st.Probe(4, 4, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run(0) == run(0.5) {
		t.Error("coupling has no effect")
	}
}

func TestRunReportsPaperBandEfficiencies(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Steps = 2
	cfg.ActualPerProc = 6
	for _, m := range []machine.Spec{machine.Bassi, machine.BGL} {
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 8}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pct := rep.PercentOfPeak(m.PeakGFs)
		if pct < 2 || pct > 25 {
			t.Errorf("%s: %%peak %.1f outside the plausible Cactus band", m.Name, pct)
		}
	}
}

func TestX1VectorPenalty(t *testing.T) {
	// §5.1: Phoenix (X1) shows the lowest Cactus performance of all
	// evaluated systems despite its high peak.
	cfg := DefaultConfig(4)
	cfg.Steps = 2
	cfg.ActualPerProc = 6
	gf := func(m machine.Spec) float64 {
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.GflopsPerProc()
	}
	x1 := gf(machine.PhoenixX1)
	for _, m := range []machine.Spec{machine.Bassi, machine.Jacquard} {
		if got := gf(m); got <= x1 {
			t.Errorf("%s (%.3f GF/P) not above X1 (%.3f GF/P)", m.Name, got, x1)
		}
	}
	// BG/L and the X1 contend for last place in Figure 4a; the X1 must
	// not beat BG/L by any meaningful margin.
	if bgl := gf(machine.BGL); x1 > bgl*1.1 {
		t.Errorf("X1 (%.3f) clearly above BG/L (%.3f), contradicting §5.1", x1, bgl)
	}
}
