// Package apexmap implements Apex-MAP, the synthetic global-data-access
// benchmark of Strohmaier and Shan that the paper cites ([19], §6.1) as a
// probe of "HPC systems and parallel programming paradigms", and names as
// the direction of its future work on irregular algorithms.
//
// Apex-MAP characterises a platform by how fast it sustains accesses to a
// global table under two knobs:
//
//   - α (alpha): temporal locality — addresses are drawn from a power-law
//     distribution; α → 1 is uniform random (no locality), α → 0
//     concentrates accesses near the start of the table;
//   - L: spatial locality — each access fetches a contiguous block of L
//     elements.
//
// The parallel version distributes the table across ranks; accesses to
// remote portions are exchanged in bulk-synchronous rounds of all-to-all
// request/response messages, exactly the structure of the original MPI
// implementation.
package apexmap

import (
	"context"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
)

// AccessKernel models the local-access inner loop: pure data movement
// with latency-bound random starts.
var AccessKernel = perfmodel.Kernel{
	Name: "apexmap-access", CPUFrac: 0.5, BytesPerFlop: 4,
	RandomFrac: 0.5, VectorFrac: 0.9,
}

// Config describes one Apex-MAP run.
type Config struct {
	// TableSize is the global table length in elements, distributed
	// evenly across ranks: a multiple of the rank count.
	TableSize int
	// Accesses is the number of block accesses per rank per round.
	Accesses int
	// Rounds is the number of bulk-synchronous rounds.
	Rounds int
	// Alpha is the temporal-locality exponent in (0, 1].
	Alpha float64
	// L is the spatial block length.
	L int
	// Seed makes address streams deterministic.
	Seed int64
}

// DefaultConfig gives a mid-locality probe.
func DefaultConfig() Config {
	return Config{
		TableSize: 1 << 16,
		Accesses:  256,
		Rounds:    3,
		Alpha:     0.5,
		L:         16,
		Seed:      2007,
	}
}

func (c Config) validate(procs int) error {
	switch {
	case c.TableSize < procs:
		return fmt.Errorf("apexmap: table smaller than rank count")
	case c.TableSize%procs != 0:
		return fmt.Errorf("apexmap: table of %d elements does not divide among %d ranks", c.TableSize, procs)
	case c.Accesses < 1 || c.Rounds < 1:
		return fmt.Errorf("apexmap: need at least one access and round")
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("apexmap: alpha %g outside (0,1]", c.Alpha)
	case c.L < 1 || c.L > c.TableSize/procs:
		return fmt.Errorf("apexmap: block length %d outside [1, local size]", c.L)
	}
	return nil
}

// Result is one (machine, config) measurement.
type Result struct {
	Machine     string
	Procs       int
	Alpha       float64
	L           int
	RemoteFrac  float64 // fraction of accesses that left the rank
	AccessPerUs float64 // sustained global accesses per microsecond, all ranks
}

// Run executes the benchmark and returns the sustained access rate.
// Cancelling ctx aborts the simulated world and returns ctx's error.
//
// A run's op stream depends on its configuration and rank count, not on
// the machine, so it goes through the apps op-log cache: the first run
// of each (config, P) records the world, and a run on any other machine
// prices that log.
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (Result, error) {
	if err := cfg.validate(sim.Procs); err != nil {
		return Result{}, err
	}
	key := fmt.Sprintf("apexmap|%#v|P=%d", cfg, sim.Procs)
	rep, err := apps.Simulate(ctx, key, sim, func(ctx context.Context, sim simmpi.Config) (*simmpi.Report, error) {
		return world(ctx, sim, cfg)
	})
	if err != nil {
		return Result{}, err
	}
	return result(sim, cfg, rep), nil
}

// world runs the benchmark's ranks.
func world(ctx context.Context, sim simmpi.Config, cfg Config) (*simmpi.Report, error) {
	return simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) { body(r, cfg) })
}

// result derives the measurement from a run's Report.
func result(sim simmpi.Config, cfg Config, rep *simmpi.Report) Result {
	total := float64(sim.Procs) * float64(cfg.Accesses) * float64(cfg.Rounds)
	return Result{
		Machine: sim.Machine.Name, Procs: sim.Procs,
		Alpha: cfg.Alpha, L: cfg.L,
		RemoteFrac:  remoteFrac(cfg, sim.Procs),
		AccessPerUs: total / (rep.Wall * 1e6),
	}
}

// stream is one rank's access stream: next returns the global table
// index of each access in draw order, Accesses per round. The draws use
// a power-law offset X = floor(N · U^(1/α)), which concentrates near
// zero for small α, from the rank's own base, so locality is
// rank-relative.
type stream struct {
	size, base int
	alpha      float64
	rng        uint64
}

func newStream(cfg Config, procs, id int) stream {
	return stream{
		size:  cfg.TableSize,
		base:  id * (cfg.TableSize / procs),
		alpha: cfg.Alpha,
		rng:   uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(id) + 1,
	}
}

// draw returns the next uniform draw U in [0, 1).
func (s *stream) draw() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return float64(s.rng>>11) / float64(1<<53)
}

// offset maps a draw to its offset X from the rank's base.
func (s *stream) offset(u float64) int {
	off := int(float64(s.size) * math.Pow(u, 1/s.alpha))
	if off >= s.size {
		off = s.size - 1
	}
	return off
}

func (s *stream) next() int { return (s.base + s.offset(s.draw())) % s.size }

// remoteFrac is the fraction of accesses that leave their rank, averaged
// over ranks: what body routes off-rank, counted from the same draws
// without running a world. An access stays on its rank exactly when its
// offset is below the local size (a larger one lands on a later rank or
// wraps to an earlier one). offset is monotone in U, so a draw further
// than 0.1% from the threshold U* = (local/N)^α is classified without
// math.Pow, a margin far wider than its rounding; only draws within that
// band compute their offset.
func remoteFrac(cfg Config, procs int) float64 {
	local := cfg.TableSize / procs
	n := cfg.Rounds * cfg.Accesses
	t := math.Pow(float64(local)/float64(cfg.TableSize), cfg.Alpha)
	lo, hi := t*(1-1e-3), t*(1+1e-3)
	var sum float64
	for id := 0; id < procs; id++ {
		s := newStream(cfg, procs, id)
		var remote float64
		for a := 0; a < n; a++ {
			u := s.draw()
			if u > hi || (u >= lo && s.offset(u) >= local) {
				remote++
			}
		}
		sum += remote / float64(n)
	}
	return sum / float64(procs)
}

// body is the per-rank benchmark loop.
func body(r *simmpi.Rank, cfg Config) {
	p := r.N()
	local := cfg.TableSize / p
	table := make([]float64, local)
	for i := range table {
		table[i] = float64(r.ID()*local + i)
	}
	addrs := newStream(cfg, p, r.ID())
	world := r.World()
	var sink float64
	for round := 0; round < cfg.Rounds; round++ {
		requests := make([][]float64, p)
		var localIdx []int
		for a := 0; a < cfg.Accesses; a++ {
			gidx := addrs.next()
			owner := gidx / local
			if owner == r.ID() {
				localIdx = append(localIdx, gidx%local)
				continue
			}
			requests[owner] = append(requests[owner], float64(gidx%local))
		}
		// Bulk exchange of requests, then of responses (each request
		// returns a block of L elements).
		incoming := r.AlltoallNominal(world, requests, avgBytes(requests))
		responses := make([][]float64, p)
		for src, reqs := range incoming {
			out := make([]float64, 0, len(reqs)*cfg.L)
			for _, fi := range reqs {
				base := int(fi)
				for l := 0; l < cfg.L; l++ {
					out = append(out, table[(base+l)%local])
				}
			}
			responses[src] = out
		}
		blocks := r.AlltoallNominal(world, responses, avgBytes(responses))
		// Consume local and returned remote blocks.
		for _, b := range localIdx {
			for l := 0; l < cfg.L; l++ {
				sink += table[(b+l)%local]
			}
		}
		for _, blk := range blocks {
			for _, v := range blk {
				sink += v
			}
		}
		// Charge the local access work (each element touched counts a
		// flop-equivalent of data movement).
		r.Compute(AccessKernel, float64(cfg.Accesses*cfg.L))
	}
	if sink == math.Inf(1) {
		panic("unreachable") // keep the sink live
	}
}

func avgBytes(parts [][]float64) float64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if len(parts) == 0 {
		return 0
	}
	return float64(n*8) / float64(len(parts))
}

// Sweep runs the locality plane (the Apex-MAP characteristic surface) for
// a machine: every (alpha, L) combination at the given concurrency.
func Sweep(ctx context.Context, spec machine.Spec, procs int, alphas []float64, ls []int) ([]Result, error) {
	var out []Result
	for _, a := range alphas {
		for _, l := range ls {
			cfg := DefaultConfig()
			cfg.Alpha = a
			cfg.L = l
			res, err := Run(ctx, simmpi.Config{Machine: spec, Procs: procs}, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}
