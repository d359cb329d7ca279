package simmpi

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
)

func TestBarrierSynchronisesClocks(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(8), func(r *Rank) {
		r.Elapse(float64(r.ID()) * 1e-3) // skewed clocks
		r.Barrier(r.World())
		if r.Now() < 7e-3 {
			t.Errorf("rank %d left barrier at %g, before slowest entrant", r.ID(), r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	const p = 16
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		in := []float64{float64(r.ID()), 1}
		out := r.Allreduce(r.World(), in, OpSum)
		wantSum := float64(p*(p-1)) / 2
		if out[0] != wantSum || out[1] != p {
			t.Errorf("rank %d allreduce = %v, want [%g %d]", r.ID(), out, wantSum, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const p = 9
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		v := float64(r.ID())
		if got := r.AllreduceScalar(r.World(), v, OpMax); got != p-1 {
			t.Errorf("max = %g, want %d", got, p-1)
		}
		if got := r.AllreduceScalar(r.World(), v, OpMin); got != 0 {
			t.Errorf("min = %g, want 0", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministicSummationOrder(t *testing.T) {
	// Floating-point sums depend on order; the runtime reduces in rank
	// order so repeated runs agree bitwise.
	vals := []float64{1e16, 1.0, -1e16, 3.0, 2.0, -3.0, 7.0, 1e-9}
	var results []float64
	for trial := 0; trial < 4; trial++ {
		var got float64
		_, err := RunContext(context.Background(), testCfg(len(vals)), func(r *Rank) {
			s := r.AllreduceScalar(r.World(), vals[r.ID()], OpSum)
			if r.ID() == 0 {
				got = s
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, got)
	}
	for _, v := range results[1:] {
		if v != results[0] {
			t.Fatalf("nondeterministic reduction: %v", results)
		}
	}
}

func TestBcast(t *testing.T) {
	const p, root = 12, 3
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		var data []float64
		if r.World().Rank(r) == root {
			data = []float64{3.14, 2.72}
		}
		out := r.Bcast(r.World(), root, data)
		if len(out) != 2 || out[0] != 3.14 {
			t.Errorf("rank %d bcast got %v", r.ID(), out)
		}
		// Each member owns its copy.
		out[0] = float64(r.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastNominalFallback pins the charged byte count for explicit,
// zero, and negative nominal sizes: zero and negative fall back to the
// actual payload (the fallback every other collective uses), and an
// explicit nominal equal to the payload charges identically, while a
// larger nominal costs strictly more virtual time.
func TestBcastNominalFallback(t *testing.T) {
	const p, elems = 4, 64
	wall := func(nomBytes float64) float64 {
		rep, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
			var data []float64
			if r.World().Rank(r) == 0 {
				data = make([]float64, elems)
			}
			out := r.BcastNominal(r.World(), 0, data, nomBytes)
			if len(out) != elems {
				t.Errorf("rank %d received %d elements", r.ID(), len(out))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	actual := wall(-1)
	if explicit := wall(elems * 8); explicit != actual {
		t.Errorf("explicit nominal %d bytes charged %g, payload fallback charged %g",
			elems*8, explicit, actual)
	}
	if zero := wall(0); zero != actual {
		t.Errorf("zero nominal charged %g, want the payload fallback %g", zero, actual)
	}
	if big := wall(1 << 20); big <= actual {
		t.Errorf("1MiB nominal charged %g, not more than the %d-byte payload's %g",
			big, elems*8, actual)
	}
}

func TestReduceOnlyRootReceives(t *testing.T) {
	const p, root = 6, 2
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		out := r.Reduce(r.World(), root, []float64{1}, OpSum)
		if r.World().Rank(r) == root {
			if out == nil || out[0] != p {
				t.Errorf("root got %v, want [%d]", out, p)
			}
		} else if out != nil {
			t.Errorf("non-root rank %d got %v", r.ID(), out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const p = 5
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		out := r.Allgather(r.World(), []float64{float64(r.ID() * 10)})
		if len(out) != p {
			t.Fatalf("allgather returned %d parts", len(out))
		}
		for i, part := range out {
			if part[0] != float64(i*10) {
				t.Errorf("part %d = %v", i, part)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const p, root = 7, 0
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		out := r.Gather(r.World(), root, []float64{float64(r.ID())})
		if r.World().Rank(r) == root {
			for i, part := range out {
				if part[0] != float64(i) {
					t.Errorf("gathered part %d = %v", i, part)
				}
			}
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallTransposesOwnership(t *testing.T) {
	const p = 6
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		parts := make([][]float64, p)
		for i := range parts {
			parts[i] = []float64{float64(r.ID()*100 + i)}
		}
		got := r.Alltoall(r.World(), parts)
		for i := range got {
			want := float64(i*100 + r.ID())
			if got[i][0] != want {
				t.Errorf("rank %d slot %d = %v, want %g", r.ID(), i, got[i], want)
			}
			got[i][0] = -1 // caller owns the result exclusively
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	const p = 10
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		color := r.ID() % 2
		sub := r.Split(r.World(), color, r.ID())
		if sub == nil {
			t.Fatalf("rank %d got nil subcommunicator", r.ID())
		}
		if sub.Size() != p/2 {
			t.Errorf("rank %d subcomm size %d, want %d", r.ID(), sub.Size(), p/2)
		}
		if want := r.ID() / 2; sub.Rank(r) != want {
			t.Errorf("rank %d has subrank %d, want %d", r.ID(), sub.Rank(r), want)
		}
		// The subcommunicator must work for collectives.
		sum := r.AllreduceScalar(sub, 1, OpSum)
		if sum != float64(p/2) {
			t.Errorf("subcomm allreduce = %g", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	const p = 4
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		color := 0
		if r.ID() == 3 {
			color = -1
		}
		sub := r.Split(r.World(), color, 0)
		if r.ID() == 3 {
			if sub != nil {
				t.Error("excluded rank received a communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("subcomm size %d, want 3", sub.Size())
		}
		r.Barrier(sub)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveAdvancesToSlowestEntrant(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(4), func(r *Rank) {
		skew := float64(r.ID()) * 0.25
		r.Elapse(skew)
		r.Allreduce(r.World(), []float64{1}, OpSum)
		if r.Now() < 0.75 {
			t.Errorf("rank %d exited collective at %g, before slowest entry 0.75", r.ID(), r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommTimeAccounted(t *testing.T) {
	rep, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Elapse(1.0)
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0) // waits ~1 virtual second
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxCommFrac < 0.5 {
		t.Errorf("max comm fraction %g, want >0.5 for the blocked receiver", rep.MaxCommFrac)
	}
}

func TestCollectivesOnBGLTorus(t *testing.T) {
	// Exercise the torus code path (BGW at 512 ranks), and check that a
	// larger partition pays more for the same allreduce.
	wall := func(p int) float64 {
		rep, err := RunContext(context.Background(), Config{Machine: machine.BGW, Procs: p}, func(r *Rank) {
			r.Allreduce(r.World(), make([]float64, 512), OpSum)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	if w512, w2048 := wall(512), wall(2048); !(w2048 > w512) {
		t.Errorf("allreduce on 2048 ranks (%g) not slower than 512 (%g)", w2048, w512)
	}
}

func TestLoadImbalanceReported(t *testing.T) {
	rep, err := RunContext(context.Background(), testCfg(4), func(r *Rank) {
		if r.ID() == 0 {
			r.Elapse(1.0)
		} else {
			r.Elapse(0.1)
		}
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / ((1.0 + 3*0.1) / 4)
	if math.Abs(rep.LoadImbalance-want) > 0.01 {
		t.Errorf("load imbalance %g, want %g", rep.LoadImbalance, want)
	}
}

func TestPhaseAccounting(t *testing.T) {
	rep, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		t0 := r.Now()
		r.Elapse(0.5)
		r.AddPhase("solve", r.Now()-t0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases["solve"] != 0.5 {
		t.Errorf("phase solve = %g, want 0.5", rep.Phases["solve"])
	}
	if rep.PhaseBreakdown() == "" {
		t.Error("empty phase breakdown")
	}
}

func TestScatter(t *testing.T) {
	const p, root = 5, 2
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		var parts [][]float64
		if r.World().Rank(r) == root {
			for i := 0; i < p; i++ {
				parts = append(parts, []float64{float64(i * 11)})
			}
		}
		got := r.Scatter(r.World(), root, parts)
		want := float64(r.World().Rank(r) * 11)
		if len(got) != 1 || got[0] != want {
			t.Errorf("rank %d scattered %v, want [%g]", r.ID(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatter(t *testing.T) {
	const p = 4
	_, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		// Each rank contributes [0,1,...,7]; the sum is 4x that, and rank
		// i receives elements [2i, 2i+1].
		in := make([]float64, 2*p)
		for i := range in {
			in[i] = float64(i)
		}
		got := r.ReduceScatter(r.World(), in, OpSum)
		me := r.World().Rank(r)
		if len(got) != 2 || got[0] != float64(4*2*me) || got[1] != float64(4*(2*me+1)) {
			t.Errorf("rank %d reduce-scatter %v", r.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterRejectsIndivisible(t *testing.T) {
	rep, err := RunContext(context.Background(), testCfg(3), func(r *Rank) {
		r.ReduceScatter(r.World(), make([]float64, 4), OpSum)
	})
	if err == nil {
		t.Errorf("indivisible reduce-scatter accepted: %+v", rep)
	}
}

func TestChargeAlltoallN(t *testing.T) {
	wall := func(n int) float64 {
		rep, err := RunContext(context.Background(), testCfg(16), func(r *Rank) {
			r.ChargeAlltoallN(r.World(), 1<<20, n)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	w1, w10 := wall(1), wall(10)
	if w10 < 9*w1 || w10 > 11*w1 {
		t.Errorf("ChargeAlltoallN not linear: 1→%g, 10→%g", w1, w10)
	}
	// Zero count is free.
	if w0 := wall(0); w0 != 0 {
		t.Errorf("zero-count charge cost %g", w0)
	}
}
