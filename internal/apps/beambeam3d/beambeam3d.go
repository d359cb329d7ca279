// Package beambeam3d reproduces BeamBeam3D, the high-energy-physics
// beam-beam collider code of the paper's §6: a strong-strong 3D
// particle-in-cell simulation of two counter-rotating charged beams whose
// collision fields are computed self-consistently by Hockney's FFT method
// on a 256×256×32 grid with 5 million macroparticles.
//
// The parallelisation follows the original's particle-field decomposition:
// particles stay put on their ranks (load balance), while charge is
// gathered to the field decomposition, the Vlasov-Poisson solve runs as
// parallel FFTs, and the resulting fields are broadcast back — the
// heavy global communication of Figure 1d. Communication volume per rank
// shrinks with P (each rank holds fewer particles), but the collective
// latency terms grow, producing the paper's rapidly declining parallel
// efficiency and sub-5% sustained peak.
package beambeam3d

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/fft"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
)

// Meta is the Table 2 row for BeamBeam3D.
var Meta = apps.Meta{
	Name:       "BeamBeam3D",
	Lines:      28000,
	Discipline: "High Energy Physics",
	Methods:    "Particle in Cell, FFT",
	Structure:  "Particle/Grid",
	Scaling:    "strong",
}

// Nominal problem constants (paper-scale, Figure 5).
const (
	NomNX, NomNY, NomNZ = 256, 256, 32
	NomParticles        = 5_000_000
)

// Per-particle nominal flop counts per collision step (deposit, field
// interpolation + kick at the collision points, and the ring transfer
// map between them).
const (
	depositFlops = 120
	kickFlops    = 250
	mapFlops     = 180
)

// Kernels: indirect addressing and data movement keep sustained rates
// low ("indirect data addressing, substantial amounts of global
// all-to-all communication, and extensive data movement", §6.1).
var (
	DepositKernel = perfmodel.Kernel{
		Name: "bb3d-deposit", CPUFrac: 0.30, BytesPerFlop: 4.0,
		RandomFrac: 0.04, VectorFrac: 0.97,
	}
	KickKernel = perfmodel.Kernel{
		Name: "bb3d-kick", CPUFrac: 0.32, BytesPerFlop: 4.0,
		RandomFrac: 0.04, VectorFrac: 0.97,
	}
	MapKernel = perfmodel.Kernel{
		Name: "bb3d-map", CPUFrac: 0.35, BytesPerFlop: 2.0,
		VectorFrac: 0.98, MathPerFlop: 0.02,
	}
	GreenKernel = perfmodel.Kernel{
		Name: "bb3d-green", CPUFrac: 0.5, BytesPerFlop: 0.6, VectorFrac: 0.99,
	}
)

// Config describes one BeamBeam3D run.
type Config struct {
	// Nominal grid and particle count (paper-scale).
	NomNX, NomNY, NomNZ int
	NomParticles        float64
	// Actual (computed-on) grid; powers of two.
	NX, NY, NZ int
	// ParticlesPerRank is the actual per-rank, per-beam particle count.
	ParticlesPerRank int
	// Steps is the number of collision steps.
	Steps int
	// Seed for deterministic beams.
	Seed int64
}

// DefaultConfig is the paper's Figure 5 problem at laptop scale.
func DefaultConfig(procs int) Config {
	return Config{
		NomNX: NomNX, NomNY: NomNY, NomNZ: NomNZ,
		NomParticles: NomParticles,
		NX:           16, NY: 16, NZ: 16,
		ParticlesPerRank: 600,
		Steps:            3,
		Seed:             777,
	}
}

func (c Config) validate(procs int) error {
	switch {
	case !fft.IsPow2(c.NX) || !fft.IsPow2(c.NY) || !fft.IsPow2(c.NZ):
		return fmt.Errorf("beambeam3d: actual grid %dx%dx%d not powers of two", c.NX, c.NY, c.NZ)
	case c.NomNX < c.NX || c.NomNY < c.NY || c.NomNZ < c.NZ:
		return fmt.Errorf("beambeam3d: nominal grid below actual")
	case c.ParticlesPerRank < 1:
		return fmt.Errorf("beambeam3d: no particles")
	case c.Steps < 1:
		return fmt.Errorf("beambeam3d: no steps")
	}
	return nil
}

// Particle is one beam macroparticle in 4D transverse phase space plus
// longitudinal position.
type Particle struct {
	X, Px, Y, Py, Z float64
}

// State is the per-rank simulation state.
type State struct {
	cfg Config
	r   *simmpi.Rank

	// Two beams of local particles (particle decomposition).
	beams [2][]Particle
	// Full-grid charge and field copies (actual scale).
	rho   [2][]float64
	exF   [2][]float64
	eyF   [2][]float64
	plan  *fft.Parallel3D // nil on non-solver ranks
	fcomm *simmpi.Comm

	// nominal per-rank gather/broadcast volume (bytes): the deposit
	// contributions this rank's particles generate.
	nomXferBytes float64
	rng          uint64
	phase        float64 // betatron phase advance per turn
}

// NewState initialises two Gaussian beams and the field decomposition.
func NewState(r *simmpi.Rank, cfg Config) (*State, error) {
	if err := cfg.validate(r.N()); err != nil {
		return nil, err
	}
	s := &State{cfg: cfg, r: r, rng: uint64(cfg.Seed)*6364136223846793005 + uint64(r.ID()) + 1}
	n := cfg.NX * cfg.NY * cfg.NZ
	for b := 0; b < 2; b++ {
		s.rho[b] = make([]float64, n)
		s.exF[b] = make([]float64, n)
		s.eyF[b] = make([]float64, n)
		s.beams[b] = make([]Particle, cfg.ParticlesPerRank)
		off := 0.1 * (2*float64(b) - 1) // beams slightly offset in x
		for i := range s.beams[b] {
			s.beams[b][i] = Particle{
				X:  0.5 + off + 0.05*s.gaussian(),
				Px: 0.01 * s.gaussian(),
				Y:  0.5 + 0.05*s.gaussian(),
				Py: 0.01 * s.gaussian(),
				Z:  0.5 + 0.1*s.gaussian(),
			}
		}
	}
	s.phase = 2 * math.Pi * 0.285 // typical betatron tune
	// Field decomposition: the largest power-of-two communicator that the
	// actual slab FFT supports (≤ NZ planes) — the "limited number of
	// available subdomains" of §6.1.
	pf := 1
	for pf*2 <= r.N() && pf*2 <= cfg.NZ && cfg.NX%(pf*2) == 0 {
		pf *= 2
	}
	color := -1
	if r.ID() < pf {
		color = 0
	}
	s.fcomm = r.Split(r.World(), color, r.ID())
	if s.fcomm != nil {
		plan, err := fft.NewParallel3D(r, s.fcomm, cfg.NX, cfg.NY, cfg.NZ,
			cfg.NomNX, cfg.NomNY, cfg.NomNZ)
		if err != nil {
			return nil, err
		}
		s.plan = plan
	}
	// Nominal transfer: each nominal particle contributes 4 grid values
	// (CIC corners in the transverse plane) of 12 bytes each.
	perRank := cfg.NomParticles / float64(r.N())
	s.nomXferBytes = perRank * 4 * 12
	return s, nil
}

func (s *State) gaussian() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	u1 := float64(s.rng>>11) / float64(1<<53)
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	u2 := float64(s.rng>>11) / float64(1<<53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (s *State) cellIndex(i, j, k int) int { return i + s.cfg.NX*(j+s.cfg.NY*k) }

// cic returns trilinear deposition stencil data for a particle position
// in [0,1)³ mapped onto the actual grid (periodic).
type cicStencil struct {
	idx [8]int
	w   [8]float64
}

func (s *State) cic(x, y, z float64) cicStencil {
	nx, ny, nz := s.cfg.NX, s.cfg.NY, s.cfg.NZ
	fx := wrap01(x) * float64(nx)
	fy := wrap01(y) * float64(ny)
	fz := wrap01(z) * float64(nz)
	i0, j0, k0 := int(fx)%nx, int(fy)%ny, int(fz)%nz
	dx, dy, dz := fx-math.Floor(fx), fy-math.Floor(fy), fz-math.Floor(fz)
	i1, j1, k1 := (i0+1)%nx, (j0+1)%ny, (k0+1)%nz
	var st cicStencil
	corners := [8][3]int{
		{i0, j0, k0}, {i1, j0, k0}, {i0, j1, k0}, {i1, j1, k0},
		{i0, j0, k1}, {i1, j0, k1}, {i0, j1, k1}, {i1, j1, k1},
	}
	ws := [8]float64{
		(1 - dx) * (1 - dy) * (1 - dz), dx * (1 - dy) * (1 - dz),
		(1 - dx) * dy * (1 - dz), dx * dy * (1 - dz),
		(1 - dx) * (1 - dy) * dz, dx * (1 - dy) * dz,
		(1 - dx) * dy * dz, dx * dy * dz,
	}
	for c := 0; c < 8; c++ {
		st.idx[c] = s.cellIndex(corners[c][0], corners[c][1], corners[c][2])
		st.w[c] = ws[c]
	}
	return st
}

func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

// depositAndGather deposits both beams locally, then gathers the global
// charge density. The actual data uses an allreduce (bit-exact); the cost
// is charged at the particle-field decomposition's nominal volume.
func (s *State) depositAndGather() {
	m0 := s.r.MarkPhase()
	for b := 0; b < 2; b++ {
		for i := range s.rho[b] {
			s.rho[b][i] = 0
		}
		for _, p := range s.beams[b] {
			st := s.cic(p.X, p.Y, p.Z)
			for c := 0; c < 8; c++ {
				s.rho[b][st.idx[c]] += st.w[c]
			}
		}
	}
	nomPerRank := s.cfg.NomParticles / float64(s.r.N())
	s.r.Compute(DepositKernel, nomPerRank*depositFlops*2)
	s.r.EndPhase("deposit", m0)

	m1 := s.r.MarkPhase()
	for b := 0; b < 2; b++ {
		sum := s.r.AllreduceNominal(s.r.World(), s.rho[b], simmpi.OpSum, s.nomXferBytes)
		copy(s.rho[b], sum)
	}
	s.r.EndPhase("gather", m1)
}

// solveFields runs the Hockney FFT Poisson solve for both beams on the
// field communicator, then broadcasts the transverse fields to all ranks.
func (s *State) solveFields() {
	m0 := s.r.MarkPhase()
	nx, ny, nz := s.cfg.NX, s.cfg.NY, s.cfg.NZ
	n := nx * ny * nz
	for b := 0; b < 2; b++ {
		var phi []float64
		if s.plan != nil {
			lz := nz / s.fcomm.Size()
			slab := make([]complex128, s.plan.SlabLen())
			for kl := 0; kl < lz; kl++ {
				k := s.plan.GlobalZ(kl)
				for j := 0; j < ny; j++ {
					for i := 0; i < nx; i++ {
						slab[s.plan.SlabIndex(i, j, kl)] = complex(s.rho[b][s.cellIndex(i, j, k)], 0)
					}
				}
			}
			pencil, err := s.plan.Forward(slab)
			if err != nil {
				panic(err)
			}
			// Hockney: multiply by the periodic Green's function −1/k².
			lx := nx / s.fcomm.Size()
			for k := 0; k < nz; k++ {
				kz := waveNumber(k, nz)
				for j := 0; j < ny; j++ {
					ky := waveNumber(j, ny)
					for il := 0; il < lx; il++ {
						kx := waveNumber(s.plan.GlobalX(il), nx)
						k2 := kx*kx + ky*ky + kz*kz
						idx := s.plan.PencilIndex(il, j, k)
						if k2 == 0 {
							pencil[idx] = 0
							continue
						}
						pencil[idx] /= complex(k2, 0)
					}
				}
			}
			s.r.Compute(GreenKernel, 6*float64(s.cfg.NomNX*s.cfg.NomNY*s.cfg.NomNZ)/float64(s.fcomm.Size()))
			back, err := s.plan.Inverse(pencil)
			if err != nil {
				panic(err)
			}
			// Rebuild the full potential on every solver rank.
			flat := make([]float64, len(back))
			for i, v := range back {
				flat[i] = real(v)
			}
			slabs := s.r.AllgatherNominal(s.fcomm, flat,
				16*float64(s.cfg.NomNX*s.cfg.NomNY*s.cfg.NomNZ)/float64(s.fcomm.Size()))
			phi = make([]float64, n)
			for q, sl := range slabs {
				for kl := 0; kl < lz; kl++ {
					k := q*lz + kl
					for j := 0; j < ny; j++ {
						for i := 0; i < nx; i++ {
							phi[s.cellIndex(i, j, k)] = sl[i+nx*(j+ny*kl)]
						}
					}
				}
			}
		}
		// Broadcast the potential from solver rank 0 to the world
		// (the "broadcast the electric and magnetic fields" of §6).
		phi = s.r.BcastNominal(s.r.World(), 0, phi, s.nomXferBytes)
		// Differentiate into transverse fields.
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				jm, jp := (j+ny-1)%ny, (j+1)%ny
				for i := 0; i < nx; i++ {
					im, ip := (i+nx-1)%nx, (i+1)%nx
					s.exF[b][s.cellIndex(i, j, k)] = -(phi[s.cellIndex(ip, j, k)] - phi[s.cellIndex(im, j, k)]) * float64(nx) / 2
					s.eyF[b][s.cellIndex(i, j, k)] = -(phi[s.cellIndex(i, jp, k)] - phi[s.cellIndex(i, jm, k)]) * float64(ny) / 2
				}
			}
		}
	}
	s.r.EndPhase("fft-solve", m0)
}

func waveNumber(i, n int) float64 {
	if i > n/2 {
		i -= n
	}
	return 2 * math.Pi * float64(i)
}

// kickAndMap applies the beam-beam kick (beam 0 feels beam 1's field and
// vice versa) followed by the linear transfer map (betatron rotation).
func (s *State) kickAndMap() {
	m0 := s.r.MarkPhase()
	const dt = 0.05
	c, sn := math.Cos(s.phase), math.Sin(s.phase)
	for b := 0; b < 2; b++ {
		other := 1 - b
		for i := range s.beams[b] {
			p := &s.beams[b][i]
			st := s.cic(p.X, p.Y, p.Z)
			var ex, ey float64
			for cc := 0; cc < 8; cc++ {
				ex += st.w[cc] * s.exF[other][st.idx[cc]]
				ey += st.w[cc] * s.eyF[other][st.idx[cc]]
			}
			// Kick.
			p.Px += ex * dt
			p.Py += ey * dt
			// Transfer map: rotate (x−x₀, px) and (y−y₀, py).
			x, y := p.X-0.5, p.Y-0.5
			p.X = 0.5 + c*x + sn*p.Px
			p.Px = -sn*x + c*p.Px
			p.Y = 0.5 + c*y + sn*p.Py
			p.Py = -sn*y + c*p.Py
		}
	}
	nomPerRank := s.cfg.NomParticles / float64(s.r.N())
	s.r.Compute(KickKernel, nomPerRank*kickFlops*2)
	s.r.Compute(MapKernel, nomPerRank*mapFlops*2)
	s.r.EndPhase("push", m0)
}

// Step advances one collision step.
func (s *State) Step() {
	s.depositAndGather()
	s.solveFields()
	s.kickAndMap()
}

// TotalCharge returns the summed charge of one beam's gathered grid.
func (s *State) TotalCharge(beam int) float64 {
	var t float64
	for _, v := range s.rho[beam] {
		t += v
	}
	return t
}

// Emittance returns the RMS transverse emittance proxy of a beam
// (local particles only): sqrt(⟨x²⟩⟨px²⟩ − ⟨x·px⟩²).
func (s *State) Emittance(beam int) float64 {
	var sxx, spp, sxp float64
	n := float64(len(s.beams[beam]))
	for _, p := range s.beams[beam] {
		x := p.X - 0.5
		sxx += x * x
		spp += p.Px * p.Px
		sxp += x * p.Px
	}
	sxx, spp, sxp = sxx/n, spp/n, sxp/n
	d := sxx*spp - sxp*sxp
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

// BeamCentroid returns the mean x of a beam's local particles.
func (s *State) BeamCentroid(beam int) float64 {
	var sum float64
	for _, p := range s.beams[beam] {
		sum += p.X
	}
	return sum / float64(len(s.beams[beam]))
}

// Run executes the BeamBeam3D benchmark.
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (*simmpi.Report, error) {
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		// Luminosity-style diagnostic reduction.
		r.AllreduceScalar(r.World(), st.Emittance(0), simmpi.OpSum)
	})
}
