package simmpi

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/perfmodel"
)

// stressProg is a mixed workload covering every scheduler seam: uneven
// compute, subcommunicator collectives, tagged point-to-point traffic
// through pooled payload buffers, a barrier rendezvous, and an
// allgather. Virtual-time results must not depend on how the host
// dispatches any of it.
func stressProg(r *Rank) {
	w := r.World()
	k := perfmodel.Kernel{Name: "stress", CPUFrac: 0.4, BytesPerFlop: 0.8}
	r.Compute(k, float64(500*(r.ID()%7+1)))
	sub := r.Split(w, r.ID()%2, r.ID())
	r.Allreduce(sub, []float64{float64(r.ID()), 1}, OpSum)
	next := (r.ID() + 1) % r.N()
	prev := (r.ID() + r.N() - 1) % r.N()
	for t := 0; t < 3; t++ {
		buf := r.GetBuf(64)[:8]
		for i := range buf {
			buf[i] = float64(r.ID()*10 + t)
		}
		r.SendOwnedNominal(next, 100+t, buf, 4096)
	}
	for t := 0; t < 3; t++ {
		r.FreeBuf(r.Recv(prev, 100+t))
	}
	r.Barrier(w)
	r.AllgatherNominal(w, []float64{float64(r.ID())}, 256)
}

// seededShuffle returns a deterministic schedShuffle hook. The hook is
// called from every shard's duty goroutine, so the generator is locked.
func seededShuffle(seed int64) func(n int) int {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(n)
	}
}

// TestSchedulerDeterminismUnderStress pins the cooperative scheduler's
// central contract: the Report is byte-identical for any dispatch order.
// It compares a 1-shard, GOMAXPROCS=1, calendar-ordered baseline against
// runs that vary all three at once — shard counts, host parallelism, and
// seeded random dispatch orders injected through the schedShuffle hook.
func TestSchedulerDeterminismUnderStress(t *testing.T) {
	const procs = 32
	defer func() { schedShards = 0 }()
	base := func() *Report {
		schedShards = 1
		rep, err := RunContext(context.Background(), testCfg(procs), stressProg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()

	defer func() { schedShuffle = nil }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			for seed := int64(0); seed < 3; seed++ {
				runtime.GOMAXPROCS(gmp)
				if seed == 0 {
					schedShuffle = nil // calendar order
				} else {
					schedShuffle = seededShuffle(seed)
				}
				schedShards = shards
				rep, err := RunContext(context.Background(), testCfg(procs), stressProg)
				schedShuffle = nil
				if err != nil {
					t.Fatalf("gmp=%d shards=%d seed=%d: %v", gmp, shards, seed, err)
				}
				if !reflect.DeepEqual(rep, base) {
					t.Fatalf("gmp=%d shards=%d seed=%d: report diverges from baseline:\ngot:  %+v\nwant: %+v",
						gmp, shards, seed, rep, base)
				}
			}
		}
	}
}
