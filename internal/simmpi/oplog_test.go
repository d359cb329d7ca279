package simmpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/topology"
)

var (
	logKernelA = perfmodel.Kernel{Name: "a", CPUFrac: 0.5, BytesPerFlop: 0.3}
	logKernelB = perfmodel.Kernel{Name: "b", CPUFrac: 0.2, RandomFrac: 0.01, MathPerFlop: 0.001}
)

// mixedBody issues every op kind the log records: both kernels,
// elapse, out-of-order receives, every collective (on the world and on
// split communicators) and nested, repeated phases.
func mixedBody(r *Rank) {
	n, id := r.N(), r.ID()
	w := r.World()
	outer := r.MarkPhase()
	r.Compute(logKernelA, float64(1e6*(id+1)))
	inner := r.MarkPhase()
	next, prev := (id+1)%n, (id+n-1)%n
	r.Send(next, 1, []float64{1})
	r.SendNominal(next, 2, []float64{2}, 4096)
	r.Recv(prev, 2)
	r.Recv(prev, 1)
	r.EndPhase("ring", inner)
	r.Elapse(1e-5 * float64(id%3))
	r.Barrier(w)
	r.BcastNominal(w, 0, []float64{1, 2, 3}, 1e5)
	r.Bcast(w, n-1, []float64{float64(id)})
	r.Allreduce(w, []float64{float64(id)}, OpSum)
	r.AllreduceNominal(w, []float64{1}, OpMax, 1<<20)
	r.Reduce(w, 0, []float64{1, 2}, OpSum)
	r.Allgather(w, []float64{float64(id)})
	r.AllgatherNominal(w, []float64{1}, 2048)
	r.Gather(w, 1%n, make([]float64, id+1))
	parts := make([][]float64, n)
	for i := range parts {
		parts[i] = make([]float64, i+1)
	}
	r.Alltoall(w, parts)
	r.AlltoallNominal(w, parts, 512)
	r.Scatter(w, 0, parts)
	r.ReduceScatter(w, make([]float64, 2*n), OpSum)
	r.ChargeAlltoallN(w, 1e4, 3)
	sub := r.Split(w, id%2, -id)
	r.Compute(logKernelB, float64(1e5*(n-id)))
	r.Allreduce(sub, []float64{1}, OpSum)
	r.Barrier(sub)
	color := -1
	if id < (n+1)/2 {
		color = 0
	}
	if half := r.Split(w, color, id); half != nil {
		r.Compute(logKernelA, float64(1e4*id))
		r.Bcast(half, 0, []float64{1})
	}
	r.EndPhase("total", outer)
	m := r.MarkPhase()
	r.Compute(logKernelA, 1e3)
	r.EndPhase("ring", m)
}

func record(t *testing.T, cfg Config, body func(*Rank)) *OpLog {
	t.Helper()
	rec := NewRecorder(1 << 30)
	cfg.Record = rec
	if _, err := RunContext(context.Background(), cfg, body); err != nil {
		t.Fatal(err)
	}
	if rec.Log() == nil || rec.Abandoned() {
		t.Fatalf("no log recorded (abandoned %v)", rec.Abandoned())
	}
	return rec.Log()
}

// TestOpLogTraffic walks one small world's log: sends with their
// nominal bytes, and each member's collective ops with the kind, the
// member world ranks and the nominal bytes that member passed.
func TestOpLogTraffic(t *testing.T) {
	log := record(t, testCfg(4), func(r *Rank) {
		n, id := r.N(), r.ID()
		w := r.World()
		r.Send((id+1)%n, 0, make([]float64, 128))
		r.Recv((id+n-1)%n, 0)
		r.Bcast(w, 0, []float64{1, 2, 3})
		parts := make([][]float64, n)
		for i := range parts {
			parts[i] = []float64{float64(i)}
		}
		r.AlltoallNominal(w, parts, 512)
		r.ChargeAlltoallN(w, 1e4, 3)
		r.Gather(w, 0, make([]float64, id+1))
		sub := r.Split(w, id%2, id)
		r.AllreduceNominal(sub, []float64{1}, OpSum, 64)
	})
	var got []string
	log.Traffic(func(src, dst int, bytes float64) {
		got = append(got, fmt.Sprintf("send %d->%d %g", src, dst, bytes))
	}, func(kind string, members []int, bytes float64) {
		got = append(got, fmt.Sprintf("%s %v %g", kind, members, bytes))
	})
	var want []string
	for r := 0; r < 4; r++ {
		want = append(want,
			fmt.Sprintf("send %d->%d 1024", r, (r+1)%4),
			"bcast [0 1 2 3] -1", // unresolved: the payload size
			"alltoall [0 1 2 3] 512",
			"alltoall [0 1 2 3] 10000",                  // ChargeAlltoallN
			fmt.Sprintf("gather [0 1 2 3] %d", 8*(r+1)), // each member's own bytes
			"split [0 1 2 3] 0",
			fmt.Sprintf("allreduce [%d %d] 64", r%2, r%2+2))
	}
	if !slices.Equal(got, want) {
		t.Errorf("traffic:\n got %q\nwant %q", got, want)
	}
}

// TestPriceMatchesRun records the mixed program once per size and
// prices it on every machine and on an explicit mapping: each priced
// Report must equal the running world's bit for bit.
func TestPriceMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, procs := range []int{1, 3, 8, 16} {
		log := record(t, Config{Machine: machine.Bassi, Procs: procs}, mixedBody)
		cfgs := []Config{{Machine: machine.BGL, Procs: procs,
			Mapping: topology.RoundRobinMapping{Nodes: (procs + 1) / 2, ProcsPerNode: 2}}}
		for _, spec := range append(machine.All(), machine.PhoenixX1) {
			cfgs = append(cfgs, Config{Machine: spec, Procs: procs})
		}
		for _, cfg := range cfgs {
			want, err := RunContext(ctx, cfg, mixedBody)
			if err != nil {
				t.Fatal(err)
			}
			got, err := log.Price(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := ReportBits(got), ReportBits(want); g != w {
				t.Errorf("P=%d on %s:\npriced %s\nran    %s", procs, cfg.Machine.Name, g, w)
			}
		}
	}
}

// TestLogIndependentOfShards records one world on one shard and on four:
// host parallelism must not change a byte of the log.
func TestLogIndependentOfShards(t *testing.T) {
	defer func(n int) { schedShards = n }(schedShards)
	schedShards = 1
	one := LogBytes(record(t, testCfg(16), mixedBody))
	schedShards = 4
	four := LogBytes(record(t, testCfg(16), mixedBody))
	if !bytes.Equal(one, four) {
		t.Errorf("a four-shard recording differs from a one-shard one (%d vs %d bytes)", len(four), len(one))
	}
}

func TestPriceErrors(t *testing.T) {
	ctx := context.Background()
	log := record(t, testCfg(4), mixedBody)
	if _, err := log.Price(ctx, testCfg(8)); err == nil {
		t.Error("priced a 4-rank log at 8 ranks")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := log.Price(cancelled, testCfg(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled price returned %v", err)
	}
	// A configuration the network model rejects fails pricing with the
	// running world's error.
	big := Config{Machine: machine.Bassi, Procs: 10000}
	_, runErr := RunContext(ctx, big, func(*Rank) {})
	if runErr == nil {
		t.Fatal("oversubscribed run succeeded")
	}
	empty := NewRecorder(1 << 30)
	empty.begin(big.Procs)
	empty.finish()
	if _, err := empty.Log().Price(ctx, big); err == nil || err.Error() != runErr.Error() {
		t.Errorf("oversubscribed price error %v, want the run's %v", err, runErr)
	}
}

func TestRecordingAbandoned(t *testing.T) {
	ctx := context.Background()
	// Over the byte bound: the run completes, the log is dropped.
	rec := NewRecorder(100)
	cfg := testCfg(4)
	cfg.Record = rec
	if _, err := RunContext(ctx, cfg, mixedBody); err != nil {
		t.Fatal(err)
	}
	if rec.Log() != nil || !rec.Abandoned() {
		t.Errorf("oversized recording: log %v, abandoned %v", rec.Log() != nil, rec.Abandoned())
	}
	// Crossed phase intervals cannot replay on a mark stack.
	rec = NewRecorder(1 << 30)
	cfg.Record = rec
	if _, err := RunContext(ctx, cfg, func(r *Rank) {
		a := r.MarkPhase()
		b := r.MarkPhase()
		r.Elapse(1)
		r.EndPhase("a", a)
		r.EndPhase("b", b)
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Log() != nil || !rec.Abandoned() {
		t.Errorf("crossed phases: log %v, abandoned %v", rec.Log() != nil, rec.Abandoned())
	}
	// A failed run publishes nothing, and is not abandoned.
	rec = NewRecorder(1 << 30)
	cfg.Record = rec
	if _, err := RunContext(ctx, cfg, func(r *Rank) { panic("boom") }); err == nil {
		t.Fatal("panicking run succeeded")
	}
	if rec.Log() != nil || rec.Abandoned() {
		t.Errorf("failed run: log %v, abandoned %v", rec.Log() != nil, rec.Abandoned())
	}
}
