// Package elbm3d reproduces ELBM3D, the entropic lattice Boltzmann fluid
// dynamics code of the paper's §4: a D3Q19 lattice with an entropy-
// stabilised BGK collision whose stabiliser is found by a Newton iteration
// on the discrete H-function — the log()-dominated step that makes the
// code "heavily constrained by the performance of the log() function".
//
// Parallelisation matches the original: the lattice is block-decomposed
// onto a 3D Cartesian processor grid with one-deep ghost exchanges of all
// 19 distributions per step (Figure 1b). The paper's experiment is strong
// scaling on a 512³ grid (Figure 3).
package elbm3d

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
)

// Meta is the Table 2 row for ELBM3D (named ELBD there).
var Meta = apps.Meta{
	Name:       "ELBM3D",
	Lines:      3000,
	Discipline: "Fluid Dynamics",
	Methods:    "Lattice Boltzmann, Navier-Stokes",
	Structure:  "Grid/Lattice",
	Scaling:    "strong",
}

// Q is the number of discrete velocities of the D3Q19 lattice.
const Q = 19

// velocities and weights of D3Q19.
var (
	ex = [Q]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	ey = [Q]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	ez = [Q]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
	wt = [Q]float64{1.0 / 3,
		1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
)

// FlopsPerCell is the nominal per-cell per-step flop count charged to the
// clock: moments, equilibria, the entropic Newton iterations (with their
// log evaluations counted as polynomial flops), and the relaxation update.
const FlopsPerCell = 650

// LogsPerCell is the nominal count of log() evaluations per cell per step
// (used for the math-library sensitivity of the kernel).
const LogsPerCell = 3.2

// Kernel describes the collision-streaming loop to the processor model.
// Calibration anchors: Figure 3b's 15–30% of peak across all machines and
// the §4.1 15–30% gain from vendor vector log routines.
var Kernel = perfmodel.Kernel{
	Name:         "elbm3d-collide",
	CPUFrac:      0.34,
	BytesPerFlop: 1.4,
	VectorFrac:   0.995, // §4.1: inner gridpoint loop fully vectorised
	MathPerFlop:  LogsPerCell / FlopsPerCell,
}

// Config describes one ELBM3D run.
type Config struct {
	// NominalN is the global cube edge of the paper-scale problem (512).
	NominalN int
	// ActualN is the cube edge actually computed on (power-of-two-ish,
	// divisible by the process grid). ActualN == NominalN runs full scale.
	ActualN int
	// Steps is the number of time steps.
	Steps int
	// Beta is the BGK relaxation parameter in (0, 1).
	Beta float64
	// MathLib selects the log() implementation (§4.1 ablation).
	MathLib machine.MathLib
}

// DefaultConfig is the paper's Figure 3 problem at a laptop-scale actual
// resolution.
func DefaultConfig(procs int) Config {
	actual := 32
	for actual*actual*actual < procs*8 { // keep ≥ 2³ cells per rank
		actual *= 2
	}
	return Config{
		NominalN: 512,
		ActualN:  actual,
		Steps:    4,
		Beta:     0.95,
		MathLib:  machine.VendorVector,
	}
}

func (c Config) validate(procs int) error {
	if c.NominalN < c.ActualN {
		return fmt.Errorf("elbm3d: nominal %d below actual %d", c.NominalN, c.ActualN)
	}
	if c.Steps < 1 {
		return fmt.Errorf("elbm3d: no steps")
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("elbm3d: beta %g outside (0,1)", c.Beta)
	}
	return nil
}

// State is the per-rank lattice state.
type State struct {
	cfg    Config
	dec    grid.Decomp
	f      [Q]*grid.Field // distributions
	fNext  [Q]*grid.Field
	ex     *grid.Exchanger
	kernel perfmodel.Kernel
	// nominal per-step charges
	nomCellsPerRank float64
}

// NewState initialises the lattice with a smooth shear perturbation on a
// uniform background (periodic, stable).
func NewState(r *simmpi.Rank, cfg Config) (*State, error) {
	if err := cfg.validate(r.N()); err != nil {
		return nil, err
	}
	dec, err := grid.NewDecomp(r.N(), cfg.ActualN, cfg.ActualN, cfg.ActualN)
	if err != nil {
		return nil, err
	}
	lx, ly, lz := dec.LocalExtent(r.ID())
	ox, oy, _ := dec.GlobalOrigin(r.ID())
	s := &State{cfg: cfg, dec: dec, kernel: Kernel.WithMathLib(cfg.MathLib)}
	n := float64(cfg.NominalN)
	s.nomCellsPerRank = n * n * n / float64(r.N())
	scale := float64(cfg.NominalN) / float64(cfg.ActualN)
	s.ex = &grid.Exchanger{Decomp: dec, Rank: r, NomScale: scale * scale}
	for q := 0; q < Q; q++ {
		s.f[q] = grid.NewField(lx, ly, lz, 1)
		s.fNext[q] = grid.NewField(lx, ly, lz, 1)
	}
	aN := float64(cfg.ActualN)
	for k := 0; k < lz; k++ {
		for j := 0; j < ly; j++ {
			for i := 0; i < lx; i++ {
				gx := float64(ox+i) / aN
				gy := float64(oy+j) / aN
				// Shear layer: ux varies with y, uy seeded with a small
				// perturbation (the classic doubly periodic shear test).
				ux := 0.04 * math.Tanh(30*(gy-0.5))
				uy := 0.001 * math.Sin(2*math.Pi*gx)
				eq := equilibrium(1.0, ux, uy, 0)
				for q := 0; q < Q; q++ {
					s.f[q].Set(i, j, k, eq[q])
				}
			}
		}
	}
	return s, nil
}

// equilibrium returns the D3Q19 second-order Maxwell-Boltzmann equilibria.
func equilibrium(rho, ux, uy, uz float64) [Q]float64 {
	var out [Q]float64
	usq := ux*ux + uy*uy + uz*uz
	for q := 0; q < Q; q++ {
		eu := float64(ex[q])*ux + float64(ey[q])*uy + float64(ez[q])*uz
		out[q] = wt[q] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*usq)
	}
	return out
}

// entropicAlpha solves H(f) = H(f + α Δ) for the over-relaxation
// stabiliser α by Newton iteration; Δ = feq − f. This is the log-heavy
// inner solve of the entropic method. α = 2 recovers plain LBGK.
func entropicAlpha(f, delta *[Q]float64) float64 {
	const target = 2.0
	alpha := target
	for iter := 0; iter < 3; iter++ {
		var g, dg float64 // g(α) = H(f+αΔ) − H(f), dg = g'
		for q := 0; q < Q; q++ {
			fq := f[q]
			fa := fq + alpha*delta[q]
			if fa <= 1e-12 || fq <= 1e-12 {
				return target // fall back near vacuum
			}
			lw := math.Log(fa / wt[q])
			g += fa*lw - fq*math.Log(fq/wt[q])
			dg += delta[q] * (lw + 1)
		}
		if math.Abs(dg) < 1e-14 {
			break
		}
		next := alpha - g/dg
		// Keep the iterate in the physical bracket.
		if next < 1 || next > 2.2 || math.IsNaN(next) {
			next = target
		}
		if math.Abs(next-alpha) < 1e-10 {
			alpha = next
			break
		}
		alpha = next
	}
	return alpha
}

// Step advances the lattice one time step: ghost exchange, then fused
// pull-streaming + entropic collision. The virtual clock is charged at
// nominal scale.
func (s *State) Step(r *simmpi.Rank) {
	m0 := r.MarkPhase()
	s.ex.Exchange(s.f[:]...)
	r.EndPhase("exchange", m0)

	m1 := r.MarkPhase()
	lx, ly, lz := s.f[0].LX, s.f[0].LY, s.f[0].LZ
	for k := 0; k < lz; k++ {
		for j := 0; j < ly; j++ {
			for i := 0; i < lx; i++ {
				var fin [Q]float64
				var rho, mx, my, mz float64
				for q := 0; q < Q; q++ {
					// Pull streaming: the population moving with e_q
					// arrives from x − e_q.
					v := s.f[q].At(i-ex[q], j-ey[q], k-ez[q])
					fin[q] = v
					rho += v
					mx += v * float64(ex[q])
					my += v * float64(ey[q])
					mz += v * float64(ez[q])
				}
				eq := equilibrium(rho, mx/rho, my/rho, mz/rho)
				var delta [Q]float64
				for q := 0; q < Q; q++ {
					delta[q] = eq[q] - fin[q]
				}
				alpha := entropicAlpha(&fin, &delta)
				ab := alpha * s.cfg.Beta
				for q := 0; q < Q; q++ {
					s.fNext[q].Set(i, j, k, fin[q]+ab*delta[q])
				}
			}
		}
	}
	s.f, s.fNext = s.fNext, s.f
	r.Compute(s.kernel, s.nomCellsPerRank*FlopsPerCell)
	r.EndPhase("collide", m1)
}

// Moments returns the rank-local total mass and momentum (for
// conservation tests).
func (s *State) Moments() (mass, px, py, pz float64) {
	lx, ly, lz := s.f[0].LX, s.f[0].LY, s.f[0].LZ
	for k := 0; k < lz; k++ {
		for j := 0; j < ly; j++ {
			for i := 0; i < lx; i++ {
				for q := 0; q < Q; q++ {
					v := s.f[q].At(i, j, k)
					mass += v
					px += v * float64(ex[q])
					py += v * float64(ey[q])
					pz += v * float64(ez[q])
				}
			}
		}
	}
	return
}

// KineticEnergy returns the rank-local kinetic energy ½ρu².
func (s *State) KineticEnergy() float64 {
	var ke float64
	lx, ly, lz := s.f[0].LX, s.f[0].LY, s.f[0].LZ
	for k := 0; k < lz; k++ {
		for j := 0; j < ly; j++ {
			for i := 0; i < lx; i++ {
				var rho, mx, my, mz float64
				for q := 0; q < Q; q++ {
					v := s.f[q].At(i, j, k)
					rho += v
					mx += v * float64(ex[q])
					my += v * float64(ey[q])
					mz += v * float64(ez[q])
				}
				ke += 0.5 * (mx*mx + my*my + mz*mz) / rho
			}
		}
	}
	return ke
}

// Density returns the density at a local interior cell.
func (s *State) Density(i, j, k int) float64 {
	var rho float64
	for q := 0; q < Q; q++ {
		rho += s.f[q].At(i, j, k)
	}
	return rho
}

// Run executes the ELBM3D benchmark under the given simulation config.
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (*simmpi.Report, error) {
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for step := 0; step < cfg.Steps; step++ {
			st.Step(r)
		}
		// Convergence/diagnostic allreduce each run, as the original does
		// for its flow statistics.
		ke := st.KineticEnergy()
		r.AllreduceScalar(r.World(), ke, simmpi.OpSum)
	})
}
