// Package cactus reproduces the Cactus BSSN-MoL astrophysics benchmark of
// the paper's §5: Einstein's equations evolved as a coupled nonlinear
// hyperbolic system on a block-decomposed 3D grid, with a Method-of-Lines
// Runge-Kutta integrator, six-face ghost exchanges through the PUGH-style
// driver (Figure 1c), and a radiation (Sommerfeld) boundary condition at
// the outer boundary — the routine whose poor vectorisation crippled the
// Cray X1 ("the X1 continued to suffer disproportionally from small
// portions of unvectorized code", §5.1).
//
// The stand-in numerics are a system of nonlinear wave equations (one
// (φ, π) pair per BSSN-like component) with second-order finite
// differences: the same data structure, stencil, communication, and
// boundary treatment as the original, at a tractable term count. The
// paper's experiment is weak scaling on 60³ points per processor
// (Figure 4).
package cactus

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
)

// Meta is the Table 2 row for Cactus.
var Meta = apps.Meta{
	Name:       "CACTUS",
	Lines:      84000,
	Discipline: "Astrophysics",
	Methods:    "Einstein Theory of GR, ADM-BSSN",
	Structure:  "Grid",
	Scaling:    "weak",
}

// NComp is the number of evolved (φ, π) component pairs standing in for
// the BSSN variables (4 constraint + 12 evolution equations → 6 pairs).
const NComp = 6

// FlopsPerPoint is the nominal per-point per-full-step flop count of the
// BSSN RHS evaluations (thousands of terms across the RK stages).
const FlopsPerPoint = 4800

// BCFlopsPerPoint is the nominal per-boundary-point cost of the radiation
// boundary condition.
const BCFlopsPerPoint = 300

// EvolveKernel describes the BSSN RHS loops: large spill-heavy loop
// bodies (low sustained issue rate) streaming many grid functions. The
// low vector fraction carries the §5.1 X1 story: the radiation boundary
// condition and assorted scalar code defeat full vectorisation, and the
// X1's vector/scalar differential makes Phoenix the slowest system on
// Cactus despite its peak.
var EvolveKernel = perfmodel.Kernel{
	Name:         "cactus-rhs",
	CPUFrac:      0.13,
	BytesPerFlop: 0.9,
	VectorFrac:   0.55,
}

// BCKernel describes the radiation boundary condition: short loops over
// faces, essentially scalar on a vector machine.
var BCKernel = perfmodel.Kernel{
	Name:         "cactus-radbc",
	CPUFrac:      0.10,
	BytesPerFlop: 1.2,
	VectorFrac:   0.10,
}

// Config describes one Cactus run.
type Config struct {
	// NominalPerProc is the per-processor cube edge of the paper-scale
	// problem (60, or 50 for the BG/L virtual-node study).
	NominalPerProc int
	// ActualPerProc is the computed-on per-processor cube edge.
	ActualPerProc int
	// Steps is the number of full MoL steps.
	Steps int
	// Coupling is the nonlinear self-interaction strength (0 = linear).
	Coupling float64
	// Periodic disables the physical radiation boundary (used by the
	// standing-wave verification test).
	Periodic bool
	// CFL is the time step in units of the grid spacing.
	CFL float64
}

// DefaultConfig is the paper's Figure 4 setup at laptop-scale actual
// resolution.
func DefaultConfig(procs int) Config {
	actual := 10
	if procs > 4096 {
		actual = 6
	}
	return Config{
		NominalPerProc: 60,
		ActualPerProc:  actual,
		Steps:          4,
		Coupling:       0.2,
		CFL:            0.25,
	}
}

func (c Config) validate() error {
	switch {
	case c.NominalPerProc < c.ActualPerProc:
		return fmt.Errorf("cactus: nominal per-proc %d below actual %d", c.NominalPerProc, c.ActualPerProc)
	case c.ActualPerProc < 3:
		return fmt.Errorf("cactus: actual per-proc edge %d too small for the stencil", c.ActualPerProc)
	case c.Steps < 1:
		return fmt.Errorf("cactus: no steps")
	case c.CFL <= 0 || c.CFL > 0.6:
		return fmt.Errorf("cactus: CFL %g outside (0, 0.6]", c.CFL)
	}
	return nil
}

// State is the per-rank evolution state.
type State struct {
	cfg Config
	dec grid.Decomp
	r   *simmpi.Rank

	phi, pi   [NComp]*grid.Field
	dphi, dpi [NComp]*grid.Field // MoL stage RHS
	tmpF      [NComp]*grid.Field // stage scratch
	tmpP      [NComp]*grid.Field

	ex *grid.Exchanger
	// global-boundary flags for the six faces of this rank.
	atLoX, atHiX, atLoY, atHiY, atLoZ, atHiZ bool

	nomPointsPerRank float64
	nomBCPoints      float64
	h, dt            float64
}

// NewState initialises a Gaussian pulse in every component, centred in the
// global domain.
func NewState(r *simmpi.Rank, cfg Config) (*State, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := r.N()
	px, py, pz := grid.Factor3(p)
	aN := cfg.ActualPerProc
	dec, err := grid.NewDecomp(p, aN*px, aN*py, aN*pz)
	if err != nil {
		return nil, err
	}
	lx, ly, lz := dec.LocalExtent(r.ID())
	cx, cy, cz := dec.Coords(r.ID())
	s := &State{
		cfg: cfg, dec: dec, r: r,
		atLoX: cx == 0, atHiX: cx == px-1,
		atLoY: cy == 0, atHiY: cy == py-1,
		atLoZ: cz == 0, atHiZ: cz == pz-1,
	}
	nom := float64(cfg.NominalPerProc)
	s.nomPointsPerRank = nom * nom * nom
	s.nomBCPoints = s.boundaryFaces() * nom * nom
	scale := nom / float64(aN)
	s.ex = &grid.Exchanger{Decomp: dec, Rank: r, NomScale: scale * scale}
	s.h = 1.0 / float64(dec.NX)
	s.dt = cfg.CFL * s.h
	ox, oy, oz := dec.GlobalOrigin(r.ID())
	for c := 0; c < NComp; c++ {
		s.phi[c] = grid.NewField(lx, ly, lz, 1)
		s.pi[c] = grid.NewField(lx, ly, lz, 1)
		s.dphi[c] = grid.NewField(lx, ly, lz, 1)
		s.dpi[c] = grid.NewField(lx, ly, lz, 1)
		s.tmpF[c] = grid.NewField(lx, ly, lz, 1)
		s.tmpP[c] = grid.NewField(lx, ly, lz, 1)
		amp := 1.0 / float64(c+1)
		s.phi[c].FillInterior(func(i, j, k int) float64 {
			x := (float64(ox+i) + 0.5) / float64(dec.NX)
			y := (float64(oy+j) + 0.5) / float64(dec.NY)
			z := (float64(oz+k) + 0.5) / float64(dec.NZ)
			r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
			return amp * math.Exp(-r2/0.02)
		})
	}
	return s, nil
}

// boundaryFaces counts this rank's faces on the global boundary.
func (s *State) boundaryFaces() float64 {
	n := 0.0
	for _, b := range []bool{s.atLoX, s.atHiX, s.atLoY, s.atHiY, s.atLoZ, s.atHiZ} {
		if b {
			n++
		}
	}
	return n
}

// SetLinearMode overwrites the state with a single standing-wave mode
// (for the dispersion verification test). Only valid with Periodic=true.
func (s *State) SetLinearMode() {
	ox, _, _ := s.dec.GlobalOrigin(s.r.ID())
	for c := 0; c < NComp; c++ {
		s.phi[c].FillInterior(func(i, j, k int) float64 {
			x := float64(ox+i) / float64(s.dec.NX)
			return math.Sin(2 * math.Pi * x)
		})
		s.pi[c].FillInterior(func(i, j, k int) float64 { return 0 })
	}
}

// rhs evaluates the MoL right-hand side into (dphi, dpi) from (f, p):
// dφ = π; dπ = ∇²φ − λ φ³ + coupling to the next component (a stand-in
// for the BSSN cross-terms).
func (s *State) rhs(f, p, df, dp [NComp]*grid.Field) {
	inv := 1.0 / (s.h * s.h)
	lam := s.cfg.Coupling
	lx, ly, lz := f[0].LX, f[0].LY, f[0].LZ
	for c := 0; c < NComp; c++ {
		next := (c + 1) % NComp
		for k := 0; k < lz; k++ {
			for j := 0; j < ly; j++ {
				for i := 0; i < lx; i++ {
					v := f[c].At(i, j, k)
					lap := (f[c].At(i+1, j, k) + f[c].At(i-1, j, k) +
						f[c].At(i, j+1, k) + f[c].At(i, j-1, k) +
						f[c].At(i, j, k+1) + f[c].At(i, j, k-1) - 6*v) * inv
					nl := -lam * v * v * v
					cross := 0.1 * lam * f[next].At(i, j, k) * v
					df[c].Set(i, j, k, p[c].At(i, j, k))
					dp[c].Set(i, j, k, lap+nl+cross)
				}
			}
		}
	}
}

// spongeLayers and spongeSigma define the absorbing layer backing the
// radiation condition: the outermost interior layers are damped toward
// zero each sync, so outgoing waves leave the domain instead of
// reflecting.
const (
	spongeLayers = 2
	spongeSigma  = 0.08
)

// applySponge damps the outermost interior layers adjacent to global
// boundaries.
func (s *State) applySponge(fields []*grid.Field) {
	for _, f := range fields {
		lx, ly, lz := f.LX, f.LY, f.LZ
		damp := func(i, j, k int, depth int) {
			sig := spongeSigma * float64(spongeLayers-depth) / spongeLayers
			f.Set(i, j, k, f.At(i, j, k)*(1-sig))
		}
		for d := 0; d < spongeLayers; d++ {
			if s.atLoX && d < lx {
				for k := 0; k < lz; k++ {
					for j := 0; j < ly; j++ {
						damp(d, j, k, d)
					}
				}
			}
			if s.atHiX && lx-1-d >= 0 {
				for k := 0; k < lz; k++ {
					for j := 0; j < ly; j++ {
						damp(lx-1-d, j, k, d)
					}
				}
			}
			if s.atLoY && d < ly {
				for k := 0; k < lz; k++ {
					for i := 0; i < lx; i++ {
						damp(i, d, k, d)
					}
				}
			}
			if s.atHiY && ly-1-d >= 0 {
				for k := 0; k < lz; k++ {
					for i := 0; i < lx; i++ {
						damp(i, ly-1-d, k, d)
					}
				}
			}
			if s.atLoZ && d < lz {
				for j := 0; j < ly; j++ {
					for i := 0; i < lx; i++ {
						damp(i, j, d, d)
					}
				}
			}
			if s.atHiZ && lz-1-d >= 0 {
				for j := 0; j < ly; j++ {
					for i := 0; i < lx; i++ {
						damp(i, j, lz-1-d, d)
					}
				}
			}
		}
	}
}

// applyRadiationBC fills global-boundary ghost zones with an outgoing-wave
// (Sommerfeld) extrapolation, overwriting the periodic wrap the exchanger
// produced. Interior ghost faces are untouched.
func (s *State) applyRadiationBC(fields []*grid.Field) {
	for _, f := range fields {
		lx, ly, lz := f.LX, f.LY, f.LZ
		extrap := func(edge, inner float64) float64 { return 2*edge - inner }
		if s.atLoX {
			for k := -1; k <= lz; k++ {
				for j := -1; j <= ly; j++ {
					f.Set(-1, j, k, extrap(f.At(0, clampI(j, ly), clampI(k, lz)), f.At(1, clampI(j, ly), clampI(k, lz))))
				}
			}
		}
		if s.atHiX {
			for k := -1; k <= lz; k++ {
				for j := -1; j <= ly; j++ {
					f.Set(lx, j, k, extrap(f.At(lx-1, clampI(j, ly), clampI(k, lz)), f.At(lx-2, clampI(j, ly), clampI(k, lz))))
				}
			}
		}
		if s.atLoY {
			for k := -1; k <= lz; k++ {
				for i := -1; i <= lx; i++ {
					f.Set(i, -1, k, extrap(f.At(clampI(i, lx), 0, clampI(k, lz)), f.At(clampI(i, lx), 1, clampI(k, lz))))
				}
			}
		}
		if s.atHiY {
			for k := -1; k <= lz; k++ {
				for i := -1; i <= lx; i++ {
					f.Set(i, ly, k, extrap(f.At(clampI(i, lx), ly-1, clampI(k, lz)), f.At(clampI(i, lx), ly-2, clampI(k, lz))))
				}
			}
		}
		if s.atLoZ {
			for j := -1; j <= ly; j++ {
				for i := -1; i <= lx; i++ {
					f.Set(i, j, -1, extrap(f.At(clampI(i, lx), clampI(j, ly), 0), f.At(clampI(i, lx), clampI(j, ly), 1)))
				}
			}
		}
		if s.atHiZ {
			for j := -1; j <= ly; j++ {
				for i := -1; i <= lx; i++ {
					f.Set(i, j, lz, extrap(f.At(clampI(i, lx), clampI(j, ly), lz-1), f.At(clampI(i, lx), clampI(j, ly), lz-2)))
				}
			}
		}
	}
}

func clampI(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// sync refreshes ghosts and applies physical boundaries for the given
// field set, charging the exchange and BC costs.
func (s *State) sync(fields []*grid.Field) {
	m0 := s.r.MarkPhase()
	s.ex.Exchange(fields...)
	s.r.EndPhase("exchange", m0)
	if !s.cfg.Periodic {
		m1 := s.r.MarkPhase()
		s.applyRadiationBC(fields)
		s.applySponge(fields)
		if s.nomBCPoints > 0 {
			s.r.Compute(BCKernel, s.nomBCPoints*BCFlopsPerPoint*float64(len(fields))/(2*NComp))
		}
		s.r.EndPhase("radbc", m1)
	}
}

// Step advances one full MoL step with a two-stage (Heun) Runge-Kutta:
// the structure (sync → RHS → update, twice) matches the original's MoL
// loop, and the nominal flop charge covers the paper-scale term count.
func (s *State) Step() {
	allPhi := append(append([]*grid.Field{}, s.phi[:]...), s.pi[:]...)
	s.sync(allPhi)

	m0 := s.r.MarkPhase()
	// Stage 1: tmp = u + dt·RHS(u).
	s.rhs(s.phi, s.pi, s.dphi, s.dpi)
	for c := 0; c < NComp; c++ {
		stageUpdate(s.tmpF[c], s.phi[c], s.dphi[c], s.dt)
		stageUpdate(s.tmpP[c], s.pi[c], s.dpi[c], s.dt)
	}
	s.r.Compute(EvolveKernel, s.nomPointsPerRank*FlopsPerPoint/2)
	s.r.EndPhase("rhs", m0)

	allTmp := append(append([]*grid.Field{}, s.tmpF[:]...), s.tmpP[:]...)
	s.sync(allTmp)

	m1 := s.r.MarkPhase()
	// Stage 2: u ← ½u + ½(tmp + dt·RHS(tmp)).
	s.rhs(s.tmpF, s.tmpP, s.dphi, s.dpi)
	for c := 0; c < NComp; c++ {
		heunUpdate(s.phi[c], s.tmpF[c], s.dphi[c], s.dt)
		heunUpdate(s.pi[c], s.tmpP[c], s.dpi[c], s.dt)
	}
	s.r.Compute(EvolveKernel, s.nomPointsPerRank*FlopsPerPoint/2)
	s.r.EndPhase("rhs", m1)
}

func stageUpdate(dst, u, du *grid.Field, dt float64) {
	for i := range dst.Data {
		dst.Data[i] = u.Data[i] + dt*du.Data[i]
	}
}

func heunUpdate(u, tmp, dtmp *grid.Field, dt float64) {
	for i := range u.Data {
		u.Data[i] = 0.5*u.Data[i] + 0.5*(tmp.Data[i]+dt*dtmp.Data[i])
	}
}

// Energy returns the rank-local field energy ½(π² + |∇φ|²) summed over
// components (a diagnostic, and the paper-style constraint monitor).
func (s *State) Energy() float64 {
	var e float64
	inv := 1.0 / s.h
	lx, ly, lz := s.phi[0].LX, s.phi[0].LY, s.phi[0].LZ
	for c := 0; c < NComp; c++ {
		for k := 0; k < lz; k++ {
			for j := 0; j < ly; j++ {
				for i := 0; i < lx; i++ {
					p := s.pi[c].At(i, j, k)
					gx := (s.phi[c].At(i+1, j, k) - s.phi[c].At(i-1, j, k)) * 0.5 * inv
					gy := (s.phi[c].At(i, j+1, k) - s.phi[c].At(i, j-1, k)) * 0.5 * inv
					gz := (s.phi[c].At(i, j, k+1) - s.phi[c].At(i, j, k-1)) * 0.5 * inv
					e += 0.5 * (p*p + gx*gx + gy*gy + gz*gz)
				}
			}
		}
	}
	return e * s.h * s.h * s.h
}

// Probe returns φ of component 0 at a local interior point.
func (s *State) Probe(i, j, k int) float64 { return s.phi[0].At(i, j, k) }

// Dec exposes the decomposition (tests locate global cells through it).
func (s *State) Dec() grid.Decomp { return s.dec }

// Run executes the Cactus benchmark under the given simulation config.
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (*simmpi.Report, error) {
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		// Constraint-monitor reduction, as the production code performs.
		r.AllreduceScalar(r.World(), st.Energy(), simmpi.OpSum)
	})
}
