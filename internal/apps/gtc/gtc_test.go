package gtc

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func smallCfg(procs int) Config {
	cfg := DefaultConfig(machine.Jaguar, procs)
	cfg.ActualParticlesPerRank = 400
	cfg.ActualPlaneEdge = 8
	cfg.Steps = 2
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := smallCfg(8)
	cfg.Domains = 3 // does not divide 8
	if err := cfg.validate(8); err == nil {
		t.Error("indivisible domain count accepted")
	}
	cfg = smallCfg(8)
	cfg.NomParticlesPerRank = 10 // below actual
	if err := cfg.validate(8); err == nil {
		t.Error("nominal below actual accepted")
	}
}

func TestDefaultDomains(t *testing.T) {
	cases := map[int]int{64: 64, 128: 64, 32: 32, 96: 48, 1: 1, 32768: 64}
	for procs, want := range cases {
		if got := defaultDomains(procs); got != want {
			t.Errorf("defaultDomains(%d) = %d, want %d", procs, got, want)
		}
	}
}

func TestBGLUsesReducedParticleLoad(t *testing.T) {
	jag := DefaultConfig(machine.Jaguar, 64)
	bgl := DefaultConfig(machine.BGL, 64)
	if bgl.NomParticlesPerRank*10 != jag.NomParticlesPerRank {
		t.Errorf("BG/L particle load %g, want a tenth of %g",
			bgl.NomParticlesPerRank, jag.NomParticlesPerRank)
	}
}

func TestChargeConservation(t *testing.T) {
	// After Scatter (deposit + domain allreduce), the sum of every
	// domain's plane equals the domain's particle count; globally the
	// deposit equals the total particle count times ranks-per-domain
	// (each rank holds a full copy).
	const procs = 8
	cfg := smallCfg(procs)
	cfg.Domains = 4 // ppd = 2
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: procs}, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		st.Scatter()
		got := st.TotalCharge()
		want := float64(2 * cfg.ActualParticlesPerRank) // 2 ranks deposit per domain
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("rank %d: domain charge %g, want %g", r.ID(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParticleCountConservedByShift(t *testing.T) {
	const procs = 8
	cfg := smallCfg(procs)
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: procs}, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			st.Step()
		}
		local := float64(st.NumParticles())
		total := r.AllreduceScalar(r.World(), local, simmpi.OpSum)
		if want := float64(procs * cfg.ActualParticlesPerRank); total != want {
			t.Errorf("global particles %g, want %g", total, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShiftDeliversParticlesToOwnDomain(t *testing.T) {
	const procs = 8
	cfg := smallCfg(procs)
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: procs}, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			st.Step()
		}
		if got, want := st.InDomainCount(), st.NumParticles(); got != want {
			t.Errorf("rank %d: %d of %d particles in own domain after shift", r.ID(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoissonReducesResidual(t *testing.T) {
	// The plane solve must move φ toward satisfying ∇²φ = −(ρ−mean).
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 1}, func(r *simmpi.Rank) {
		cfg := smallCfg(1)
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		st.Scatter()
		res := func() float64 {
			n := st.edge
			h2 := 1.0 / float64(n*n)
			mean := 0.0
			for _, v := range st.rho {
				mean += v
			}
			mean /= float64(len(st.rho))
			var sum float64
			for j := 0; j < n; j++ {
				jm, jp := (j+n-1)%n, (j+1)%n
				for i := 0; i < n; i++ {
					im, ip := (i+n-1)%n, (i+1)%n
					lap := st.phi[j*n+im] + st.phi[j*n+ip] + st.phi[jm*n+i] + st.phi[jp*n+i] - 4*st.phi[j*n+i]
					d := lap + h2*(st.rho[j*n+i]-mean)
					sum += d * d
				}
			}
			return math.Sqrt(sum)
		}
		r0 := res()
		st.Solve()
		r1 := res()
		if r1 >= r0 {
			t.Errorf("Poisson residual did not decrease: %g → %g", r0, r1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, smallCfg(8))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic walls: %v vs %v", a, b)
	}
}

func TestOpteronEfficiencyAdvantage(t *testing.T) {
	// §3.1: the Opteron "delivers a significantly higher percentage of
	// peak for GTC compared to all the other superscalar processors", and
	// Bassi achieves about half of Jaguar's percentage of peak.
	pct := func(m machine.Spec) float64 {
		cfg := smallCfg(64)
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 64}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.PercentOfPeak(m.PeakGFs)
	}
	jag, bassi, bgl := pct(machine.Jaguar), pct(machine.Bassi), pct(machine.BGL)
	if jag <= bassi || jag <= bgl {
		t.Errorf("Jaguar %%peak %.1f not above Bassi %.1f and BG/L %.1f", jag, bassi, bgl)
	}
	if ratio := bassi / jag; ratio < 0.3 || ratio > 0.75 {
		t.Errorf("Bassi/Jaguar %%peak ratio %.2f, paper says about one half", ratio)
	}
}

func TestPhoenixFastestRaw(t *testing.T) {
	// Figure 2a: Phoenix's Gflops/P is up to ~4.5× the second-best
	// (Jaguar) thanks to the multi-streaming vector optimisations.
	gf := func(m machine.Spec) float64 {
		cfg := smallCfg(64)
		rep, err := Run(context.Background(), simmpi.Config{Machine: m, Procs: 64}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.GflopsPerProc()
	}
	phx, jag := gf(machine.Phoenix), gf(machine.Jaguar)
	if ratio := phx / jag; ratio < 2.5 || ratio > 6 {
		t.Errorf("Phoenix/Jaguar ratio %.2f, paper shows up to ~4.5", ratio)
	}
}

func TestMathLibOptimizationOnBGL(t *testing.T) {
	// §3.1: MASS/MASSV gave ~30%; combined with loop optimisations, ~60%
	// over the original runs.
	wall := func(lib machine.MathLib, loops bool) float64 {
		cfg := smallCfg(32)
		cfg.MathLib = lib
		cfg.OptimizedLoops = loops
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.BGL, Procs: 32}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	base := wall(machine.LibmDefault, false)
	mass := wall(machine.VendorVector, false)
	full := wall(machine.VendorVector, true)
	libBoost := base / mass
	fullBoost := base / full
	if libBoost < 1.1 || libBoost > 1.6 {
		t.Errorf("MASSV boost %.2fx, paper reports ~1.3x", libBoost)
	}
	if fullBoost < 1.3 || fullBoost > 2.0 {
		t.Errorf("combined boost %.2fx, paper reports ~1.6x", fullBoost)
	}
	if fullBoost <= libBoost {
		t.Error("loop optimisations added nothing")
	}
}

func TestAlignedMappingReducesRingHops(t *testing.T) {
	const procs, domains = 512, 16
	m, err := AlignedBGLMapping(machine.BGW, procs, domains)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(procs)
	cfg.Domains = domains
	cfg.Steps = 2
	runWith := func(mp interface {
		Node(int) int
		Name() string
	}) float64 {
		sim := simmpi.Config{Machine: machine.BGW, Procs: procs}
		if mp != nil {
			sim.Mapping = m
		}
		rep, err := Run(context.Background(), sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	def, aligned := runWith(nil), runWith(m)
	if aligned >= def {
		t.Errorf("aligned mapping (%g) not faster than default (%g)", aligned, def)
	}
}

func TestVirtualNodeModeHighEfficiency(t *testing.T) {
	// §3.1: GTC retains >95% efficiency using the second core (virtual
	// node mode), because it is latency- rather than bandwidth-bound.
	cfg := smallCfg(64)
	co, err := Run(context.Background(), simmpi.Config{Machine: machine.BGL, Procs: 64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vn, err := Run(context.Background(), simmpi.Config{Machine: machine.BGL.WithMode(machine.VirtualNode), Procs: 64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eff := co.Wall / vn.Wall
	if eff < 0.85 {
		t.Errorf("virtual-node per-core efficiency %.2f, paper reports >0.95", eff)
	}
}

func TestWeakScalingRoughlyFlat(t *testing.T) {
	// Figure 2: near-perfect weak scaling on the superscalar machines.
	gf := func(p int) float64 {
		cfg := smallCfg(p)
		rep, err := Run(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.GflopsPerProc()
	}
	g64, g256 := gf(64), gf(256)
	if drop := g256 / g64; drop < 0.9 {
		t.Errorf("weak scaling dropped to %.2f of the 64-proc rate", drop)
	}
}
