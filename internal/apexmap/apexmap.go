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
	// TableSize is the global table length in elements (distributed
	// evenly across ranks).
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
func Run(ctx context.Context, sim simmpi.Config, cfg Config) (Result, error) {
	if err := cfg.validate(sim.Procs); err != nil {
		return Result{}, err
	}
	remote := make([]float64, sim.Procs)
	rep, err := simmpi.RunContext(ctx, sim, func(r *simmpi.Rank) {
		remote[r.ID()] = body(r, cfg)
	})
	if err != nil {
		return Result{}, err
	}
	var remoteFrac float64
	for _, f := range remote {
		remoteFrac += f
	}
	remoteFrac /= float64(sim.Procs)
	total := float64(sim.Procs) * float64(cfg.Accesses) * float64(cfg.Rounds)
	return Result{
		Machine: sim.Machine.Name, Procs: sim.Procs,
		Alpha: cfg.Alpha, L: cfg.L,
		RemoteFrac:  remoteFrac,
		AccessPerUs: total / (rep.Wall * 1e6),
	}, nil
}

// body is the per-rank benchmark loop; it returns the remote-access
// fraction observed by this rank.
func body(r *simmpi.Rank, cfg Config) float64 {
	p := r.N()
	local := cfg.TableSize / p
	table := make([]float64, local)
	for i := range table {
		table[i] = float64(r.ID()*local + i)
	}
	rng := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(r.ID()) + 1
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / float64(1<<53)
	}
	world := r.World()
	var remoteCount, totalCount float64
	var sink float64
	for round := 0; round < cfg.Rounds; round++ {
		// Generate the power-law address stream: X = floor(N · U^(1/α))
		// concentrates near zero for small α. Each rank's stream is
		// offset by its own base so locality is rank-relative.
		requests := make([][]float64, p)
		var localIdx []int
		for a := 0; a < cfg.Accesses; a++ {
			u := next()
			off := int(float64(cfg.TableSize) * math.Pow(u, 1/cfg.Alpha))
			if off >= cfg.TableSize {
				off = cfg.TableSize - 1
			}
			gidx := (r.ID()*local + off) % cfg.TableSize
			owner := gidx / local
			totalCount++
			if owner == r.ID() {
				localIdx = append(localIdx, gidx%local)
				continue
			}
			remoteCount++
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
	return remoteCount / totalCount
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
