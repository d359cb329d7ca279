// Package gtc reproduces GTC, the gyrokinetic toroidal particle-in-cell
// magnetic-fusion code of the paper's §3: charge deposition (scatter), a
// Poisson solve on each poloidal plane, field gather, particle push, and
// the toroidal particle shift.
//
// Parallelisation matches the original's two-level scheme: a 1D domain
// decomposition in the toroidal direction (the fixed number of poloidal
// planes prescribed by the fusion device), and a particle decomposition
// within each domain. Ranks sharing a domain hold a copy of the plane
// grid and allreduce their charge contributions over a domain
// communicator; a ring of point-to-point shifts moves particles between
// adjacent toroidal domains (Figure 1a).
//
// The paper's experiment is weak scaling with 100 particles per cell per
// processor (10 on BG/L), plus three BG/L optimisation studies (§3.1):
// MASS/MASSV math libraries, loop restructuring, and an explicit
// processor mapping aligning the toroidal ring with the torus network.
package gtc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
	"repro/internal/topology"
)

// Meta is the Table 2 row for GTC.
var Meta = apps.Meta{
	Name:       "GTC",
	Lines:      5000,
	Discipline: "Magnetic Fusion",
	Methods:    "Particle in Cell, Vlasov-Poisson",
	Structure:  "Particle/Grid",
	Scaling:    "weak",
}

// Nominal problem constants (paper-scale).
const (
	// NominalDomains is the fixed number of toroidal domains (poloidal
	// planes) prescribed by the simulated device.
	NominalDomains = 64
	// NominalPlaneCells is the nominal poloidal-plane grid size (mgrid).
	NominalPlaneCells = 150000
	// ParticlesPerCell is the per-processor particle load of the paper's
	// weak-scaling study (100; 10 on BG/L for memory reasons).
	ParticlesPerCell = 100
	// BGLParticlesPerCell is the reduced BG/L load.
	BGLParticlesPerCell = 10
)

// Per-phase nominal flop counts per particle per step.
const (
	scatterFlops = 40
	gatherFlops  = 50
	pushFlops    = 90
	// poissonFlopsPerCellIter is the per-cell per-iteration Poisson cost.
	poissonFlopsPerCellIter = 10
	poissonIters            = 5
)

// Kernels. RandomFrac carries the gather/scatter latency sensitivity
// ("a large number of random accesses to memory, making the code
// sensitive to memory access latency", §3.1); the Opteron's low memory
// latency is why Jaguar/Jacquard sustain the highest superscalar
// percentage of peak.
var (
	// ScatterKernel: charge deposition, random writes.
	ScatterKernel = perfmodel.Kernel{
		Name: "gtc-scatter", CPUFrac: 0.40, BytesPerFlop: 0.6,
		RandomFrac: 0.055, VectorFrac: 0.995,
	}
	// GatherKernel: field interpolation, random reads.
	GatherKernel = perfmodel.Kernel{
		Name: "gtc-gather", CPUFrac: 0.42, BytesPerFlop: 0.55,
		RandomFrac: 0.05, VectorFrac: 0.995,
	}
	// PushKernel: particle advance with gyro-phase trigonometry — the
	// phase that benefits from MASS/MASSV (§3.1).
	PushKernel = perfmodel.Kernel{
		Name: "gtc-push", CPUFrac: 0.50, BytesPerFlop: 0.7,
		RandomFrac: 0.008, VectorFrac: 0.995, MathPerFlop: 0.03,
	}
	// PoissonKernel: the iterative plane solve.
	PoissonKernel = perfmodel.Kernel{
		Name: "gtc-poisson", CPUFrac: 0.40, BytesPerFlop: 1.3, VectorFrac: 0.98,
	}
)

// Config describes one GTC run.
type Config struct {
	// Domains is the number of toroidal domains (defaults to
	// min(NominalDomains, procs); must divide procs).
	Domains int
	// NomPlaneCells and NomParticlesPerRank define the charged
	// paper-scale problem.
	NomPlaneCells       int
	NomParticlesPerRank float64
	// ActualPlaneEdge is the computed-on plane edge (plane is edge²).
	ActualPlaneEdge int
	// ActualParticlesPerRank is the computed-on particle count.
	ActualParticlesPerRank int
	// Steps is the number of PIC time steps.
	Steps int
	// MathLib selects the math library build (§3.1 ablation).
	MathLib machine.MathLib
	// OptimizedLoops applies the §3.1 loop unrolling and
	// real(int(x))-for-aint(x) rewrites (raises sustained issue rate).
	OptimizedLoops bool
	// Seed makes particle initialisation deterministic.
	Seed int64
}

// DefaultConfig is the paper's Figure 2 weak-scaling point for a machine.
func DefaultConfig(spec machine.Spec, procs int) Config {
	ppc := float64(ParticlesPerCell)
	if spec.IsBGL() {
		ppc = BGLParticlesPerCell
	}
	return Config{
		Domains:                defaultDomains(procs),
		NomPlaneCells:          NominalPlaneCells,
		NomParticlesPerRank:    ppc * NominalPlaneCells,
		ActualPlaneEdge:        16,
		ActualParticlesPerRank: 1500,
		Steps:                  3,
		MathLib:                machine.VendorVector,
		OptimizedLoops:         true,
		Seed:                   12345,
	}
}

func defaultDomains(procs int) int {
	d := NominalDomains
	if procs < d {
		d = procs
	}
	for procs%d != 0 {
		d--
	}
	return d
}

func (c Config) validate(procs int) error {
	switch {
	case c.Domains < 1 || procs%c.Domains != 0:
		return fmt.Errorf("gtc: %d domains do not divide %d procs", c.Domains, procs)
	case c.ActualPlaneEdge < 4:
		return fmt.Errorf("gtc: actual plane edge %d too small", c.ActualPlaneEdge)
	case c.ActualParticlesPerRank < 1:
		return fmt.Errorf("gtc: no particles")
	case c.NomPlaneCells < c.ActualPlaneEdge*c.ActualPlaneEdge:
		return fmt.Errorf("gtc: nominal plane smaller than actual")
	case float64(c.ActualParticlesPerRank) > c.NomParticlesPerRank:
		return fmt.Errorf("gtc: nominal particles below actual")
	case c.Steps < 1:
		return fmt.Errorf("gtc: no steps")
	}
	return nil
}

// Particle is one gyrokinetic marker.
type Particle struct {
	X, Y   float64 // poloidal-plane position in [0,1)
	Zeta   float64 // toroidal angle in [0,1)
	Vx, Vy float64 // perpendicular drift velocity
	Vpar   float64 // parallel velocity (toroidal)
	W      float64 // statistical weight
}

const particleWords = 7

// State is the per-rank PIC state.
type State struct {
	cfg Config
	r   *simmpi.Rank

	domain, pidx int // toroidal domain and particle-decomposition index
	ppd          int // ranks per domain
	domainComm   *simmpi.Comm

	parts      []Particle
	rho, phi   []float64 // actual plane grids (edge²)
	phiTmp     []float64
	exF, eyF   []float64 // plane field components
	edge       int
	dt         float64
	zetaLo     float64 // this domain's toroidal interval
	zetaWidth  float64
	kernels    kernels
	nomShift   float64 // expected nominal per-step shift volume (bytes)
	rngState   uint64
	shiftCalls int
}

type kernels struct {
	scatter, gather, push, poisson perfmodel.Kernel
}

// NewState builds the per-rank state, splitting the world into domain
// communicators and loading particles.
func NewState(r *simmpi.Rank, cfg Config) (*State, error) {
	if err := cfg.validate(r.N()); err != nil {
		return nil, err
	}
	ppd := r.N() / cfg.Domains
	s := &State{
		cfg: cfg, r: r,
		domain: r.ID() / ppd, pidx: r.ID() % ppd, ppd: ppd,
		edge:     cfg.ActualPlaneEdge,
		rngState: uint64(cfg.Seed)*2654435761 + uint64(r.ID())*40503 + 1,
	}
	s.kernels = kernels{
		scatter: tune(ScatterKernel, cfg),
		gather:  tune(GatherKernel, cfg),
		push:    tune(PushKernel, cfg),
		poisson: tune(PoissonKernel, cfg),
	}
	s.domainComm = r.Split(r.World(), s.domain, s.pidx)
	n := s.edge * s.edge
	s.rho = make([]float64, n)
	s.phi = make([]float64, n)
	s.phiTmp = make([]float64, n)
	s.exF = make([]float64, n)
	s.eyF = make([]float64, n)
	s.zetaWidth = 1.0 / float64(cfg.Domains)
	s.zetaLo = float64(s.domain) * s.zetaWidth
	// Time step: bounded so no particle crosses more than one domain.
	s.dt = 0.4 * s.zetaWidth
	s.parts = make([]Particle, cfg.ActualParticlesPerRank)
	for i := range s.parts {
		s.parts[i] = Particle{
			X:    s.uniform(),
			Y:    s.uniform(),
			Zeta: s.zetaLo + s.uniform()*s.zetaWidth,
			Vx:   0.1 * s.gaussian(),
			Vy:   0.1 * s.gaussian(),
			Vpar: s.gaussian(), // in domain-widths per unit time
			W:    1,
		}
	}
	// Nominal shift volume: roughly a tenth of the particles cross a
	// domain boundary per step, as in production GTC runs.
	s.nomShift = 0.1 * cfg.NomParticlesPerRank * particleWords * 8
	return s, nil
}

// tune applies the configuration's optimisation switches to a kernel.
func tune(k perfmodel.Kernel, cfg Config) perfmodel.Kernel {
	k = k.WithMathLib(cfg.MathLib)
	if !cfg.OptimizedLoops {
		// §3.1: the original build (aint() calls, no unrolling) sustains
		// a lower issue rate.
		k.CPUFrac *= 0.82
	}
	return k
}

// Cheap deterministic xorshift RNG (stdlib-only, reproducible per rank).
func (s *State) next() uint64 {
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return s.rngState
}

func (s *State) uniform() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

func (s *State) gaussian() float64 {
	// Box-Muller from two uniforms.
	u1 := s.uniform()
	u2 := s.uniform()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// cic computes cloud-in-cell corners and weights for a plane position.
func (s *State) cic(x, y float64) (i0, j0, i1, j1 int, w00, w01, w10, w11 float64) {
	e := float64(s.edge)
	fx, fy := x*e, y*e
	i0 = int(fx) % s.edge
	j0 = int(fy) % s.edge
	dx, dy := fx-math.Floor(fx), fy-math.Floor(fy)
	i1 = (i0 + 1) % s.edge
	j1 = (j0 + 1) % s.edge
	w00 = (1 - dx) * (1 - dy)
	w01 = (1 - dx) * dy
	w10 = dx * (1 - dy)
	w11 = dx * dy
	return
}

// Scatter deposits particle charge onto this rank's plane copy, then
// allreduces over the domain communicator so every copy holds the
// domain's full charge.
func (s *State) Scatter() {
	m0 := s.r.MarkPhase()
	for i := range s.rho {
		s.rho[i] = 0
	}
	for _, p := range s.parts {
		i0, j0, i1, j1, w00, w01, w10, w11 := s.cic(p.X, p.Y)
		s.rho[j0*s.edge+i0] += p.W * w00
		s.rho[j1*s.edge+i0] += p.W * w01
		s.rho[j0*s.edge+i1] += p.W * w10
		s.rho[j1*s.edge+i1] += p.W * w11
	}
	s.r.Compute(s.kernels.scatter, s.cfg.NomParticlesPerRank*scatterFlops)
	s.r.EndPhase("scatter", m0)

	m1 := s.r.MarkPhase()
	if s.ppd > 1 {
		sum := s.r.AllreduceNominal(s.domainComm, s.rho, simmpi.OpSum,
			float64(s.cfg.NomPlaneCells)*8)
		copy(s.rho, sum)
	}
	s.r.EndPhase("allreduce", m1)
}

// Solve runs the poloidal-plane Poisson solve (Jacobi iterations on this
// rank's copy, exactly as GTC solves redundantly per processor) and
// differentiates the potential into the plane field.
func (s *State) Solve() {
	m0 := s.r.MarkPhase()
	n := s.edge
	h2 := 1.0 / float64(n*n)
	mean := 0.0
	for _, v := range s.rho {
		mean += v
	}
	mean /= float64(len(s.rho))
	for iter := 0; iter < poissonIters; iter++ {
		for j := 0; j < n; j++ {
			jm, jp := (j+n-1)%n, (j+1)%n
			for i := 0; i < n; i++ {
				im, ip := (i+n-1)%n, (i+1)%n
				s.phiTmp[j*n+i] = 0.25 * (s.phi[j*n+im] + s.phi[j*n+ip] +
					s.phi[jm*n+i] + s.phi[jp*n+i] + h2*(s.rho[j*n+i]-mean))
			}
		}
		s.phi, s.phiTmp = s.phiTmp, s.phi
	}
	half := float64(n) / 2
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			im, ip := (i+n-1)%n, (i+1)%n
			jm, jp := (j+n-1)%n, (j+1)%n
			s.exF[j*n+i] = -(s.phi[j*n+ip] - s.phi[j*n+im]) * half
			s.eyF[j*n+i] = -(s.phi[jp*n+i] - s.phi[jm*n+i]) * half
		}
	}
	s.r.Compute(s.kernels.poisson,
		float64(s.cfg.NomPlaneCells)*poissonFlopsPerCellIter*(poissonIters+1))
	s.r.EndPhase("solve", m0)
}

// GatherPush interpolates the field to each particle and advances it: the
// perpendicular drift responds to E with a gyro-phase rotation (the
// sin/cos of the §3.1 math-library story), and the parallel velocity
// advects the particle toroidally.
func (s *State) GatherPush() {
	m0 := s.r.MarkPhase()
	dt := s.dt
	for idx := range s.parts {
		p := &s.parts[idx]
		i0, j0, i1, j1, w00, w01, w10, w11 := s.cic(p.X, p.Y)
		ex := w00*s.exF[j0*s.edge+i0] + w01*s.exF[j1*s.edge+i0] +
			w10*s.exF[j0*s.edge+i1] + w11*s.exF[j1*s.edge+i1]
		ey := w00*s.eyF[j0*s.edge+i0] + w01*s.eyF[j1*s.edge+i0] +
			w10*s.eyF[j0*s.edge+i1] + w11*s.eyF[j1*s.edge+i1]
		// Gyro rotation plus E acceleration.
		angle := 0.2 * dt
		c, sn := math.Cos(angle), math.Sin(angle)
		vx := c*p.Vx - sn*p.Vy + ex*dt
		vy := sn*p.Vx + c*p.Vy + ey*dt
		p.Vx, p.Vy = vx, vy
		p.X = wrap(p.X + vx*dt)
		p.Y = wrap(p.Y + vy*dt)
		p.Zeta = wrap(p.Zeta + p.Vpar*s.zetaWidth*dt)
	}
	s.r.Compute(s.kernels.gather, s.cfg.NomParticlesPerRank*gatherFlops)
	s.r.Compute(s.kernels.push, s.cfg.NomParticlesPerRank*pushFlops)
	s.r.EndPhase("push", m0)
}

func wrap(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

// inDomain reports whether a toroidal angle belongs to this rank's domain.
func (s *State) inDomain(zeta float64) bool {
	d := int(zeta * float64(s.cfg.Domains))
	if d >= s.cfg.Domains {
		d = s.cfg.Domains - 1
	}
	return d == s.domain
}

// ringRank returns the world rank holding the same particle index in the
// toroidal domain offset by dir.
func (s *State) ringRank(dir int) int {
	d := (s.domain + dir + s.cfg.Domains) % s.cfg.Domains
	return d*s.ppd + s.pidx
}

// Shift exchanges particles that left the domain with the ring
// neighbours, in both toroidal directions (the dominant point-to-point
// pattern of Figure 1a).
func (s *State) Shift() {
	m0 := s.r.MarkPhase()
	var stay, right, left []Particle
	for _, p := range s.parts {
		switch {
		case s.inDomain(p.Zeta):
			stay = append(stay, p)
		case forwardDistance(s.domain, int(p.Zeta*float64(s.cfg.Domains)), s.cfg.Domains):
			right = append(right, p)
		default:
			left = append(left, p)
		}
	}
	s.shiftCalls++
	tagR := 1000 + 2*s.shiftCalls
	tagL := tagR + 1
	if s.cfg.Domains > 1 {
		fromLeft := s.r.SendrecvNominal(s.ringRank(+1), tagR, packParticles(right),
			s.ringRank(-1), tagR, s.nomShift/2)
		fromRight := s.r.SendrecvNominal(s.ringRank(-1), tagL, packParticles(left),
			s.ringRank(+1), tagL, s.nomShift/2)
		stay = append(stay, unpackParticles(fromLeft)...)
		stay = append(stay, unpackParticles(fromRight)...)
	}
	s.parts = stay
	s.r.EndPhase("shift", m0)
}

// forwardDistance reports whether moving from domain a to b is shorter
// going forward around the ring.
func forwardDistance(a, b, n int) bool {
	fwd := ((b - a) + n) % n
	return fwd <= n/2
}

func packParticles(ps []Particle) []float64 {
	out := make([]float64, 0, len(ps)*particleWords)
	for _, p := range ps {
		out = append(out, p.X, p.Y, p.Zeta, p.Vx, p.Vy, p.Vpar, p.W)
	}
	return out
}

func unpackParticles(data []float64) []Particle {
	n := len(data) / particleWords
	out := make([]Particle, n)
	for i := 0; i < n; i++ {
		b := data[i*particleWords:]
		out[i] = Particle{X: b[0], Y: b[1], Zeta: b[2], Vx: b[3], Vy: b[4], Vpar: b[5], W: b[6]}
	}
	return out
}

// Step advances one full PIC cycle.
func (s *State) Step() {
	s.Scatter()
	s.Solve()
	s.GatherPush()
	s.Shift()
}

// NumParticles returns the rank-local particle count.
func (s *State) NumParticles() int { return len(s.parts) }

// TotalCharge returns the rank-local plane charge (after Scatter it holds
// the whole domain's deposit when ppd ranks share the domain).
func (s *State) TotalCharge() float64 {
	var t float64
	for _, v := range s.rho {
		t += v
	}
	return t
}

// Domain returns the rank's toroidal domain index.
func (s *State) Domain() int { return s.domain }

// InDomainCount returns how many local particles are inside the rank's
// own toroidal domain.
func (s *State) InDomainCount() int {
	n := 0
	for _, p := range s.parts {
		if s.inDomain(p.Zeta) {
			n++
		}
	}
	return n
}

// Run executes the GTC benchmark under the given simulation config.
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (*simmpi.Report, error) {
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		st, err := NewState(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cfg.Steps; i++ {
			st.Step()
		}
		// Global diagnostic, as the production code's field energy output.
		r.AllreduceScalar(r.World(), st.TotalCharge(), simmpi.OpSum)
	})
}

// AlignedBGLMapping builds the §3.1 explicit mapping file for a BG/L-class
// machine: each toroidal domain occupies one X-Y plane slab of the torus
// so ring traffic moves exactly one Z hop.
func AlignedBGLMapping(spec machine.Spec, procs, domains int) (topology.Mapping, error) {
	if spec.Topology != machine.Torus3D {
		return nil, fmt.Errorf("gtc: %s is not a torus machine", spec.Name)
	}
	nodes := (procs + spec.ProcsPerNode - 1) / spec.ProcsPerNode
	tor := topology.NewTorus3D(nodes)
	m, err := topology.AlignRingToTorus(tor, domains, procs/domains, spec.ProcsPerNode)
	if err != nil {
		return nil, err
	}
	return m, nil
}
