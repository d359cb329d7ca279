package simmpi

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/commmatrix"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

func testCfg(p int) Config {
	return Config{Machine: machine.Bassi, Procs: p}
}

func TestRunValidates(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{Machine: machine.Bassi, Procs: 0}, func(*Rank) {}); err == nil {
		t.Error("accepted zero ranks")
	}
	if _, err := RunContext(context.Background(), Config{Machine: machine.Bassi, Procs: 10000}, func(*Rank) {}); err == nil {
		t.Error("accepted oversubscription")
	}
}

func TestComputeAdvancesClockAndCountsFlops(t *testing.T) {
	k := perfmodel.Kernel{Name: "k", CPUFrac: 0.5}
	rep, err := RunContext(context.Background(), testCfg(4), func(r *Rank) {
		r.Compute(k, 1e9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFlops != 4e9 {
		t.Errorf("total flops %g, want 4e9", rep.TotalFlops)
	}
	if rep.Wall <= 0 {
		t.Error("wall time not advanced")
	}
	want := 1e9 / (machine.Bassi.PeakGFs * 1e9 * 0.5)
	if diff := rep.Wall - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("wall %g, want %g", rep.Wall, want)
	}
}

func TestSendRecvDelivery(t *testing.T) {
	// Ranks 0 and 8 are on different Bassi nodes (8 procs/node), so the
	// full inter-node MPI latency applies.
	rep, err := RunContext(context.Background(), testCfg(16), func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(8, 7, []float64{1, 2, 3})
		case 8:
			got := r.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("rank 8 received %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 1 {
		t.Errorf("message count %d, want 1", rep.Messages)
	}
	if rep.Wall < machine.Bassi.MPILatency {
		t.Errorf("wall %g below one network latency", rep.Wall)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{42}
			r.Send(1, 0, buf)
			buf[0] = -1 // sender reuses the buffer
			r.Send(1, 1, buf)
		} else {
			if got := r.Recv(0, 0); got[0] != 42 {
				t.Errorf("first message corrupted: %v", got)
			}
			if got := r.Recv(0, 1); got[0] != -1 {
				t.Errorf("second message wrong: %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderingPerSourceTag(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		const n = 50
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := r.Recv(0, 3); got[0] != float64(i) {
					t.Fatalf("message %d out of order: got %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsDoNotCross(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{1})
			r.Send(1, 2, []float64{2})
		} else {
			// Receive in reverse tag order.
			if got := r.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 delivered %v", got)
			}
			if got := r.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 delivered %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedKeysKeepPerKeyFIFO has two sources send interleaved
// tags to one rank, which receives them far from arrival order: tags
// descending, sources swapped. Every payload must reach its own
// (source, tag) and, within a key, arrive in send order. The first round
// receives while the senders are still running; the second only after
// a barrier, when every message is already queued.
func TestInterleavedKeysKeepPerKeyFIFO(t *testing.T) {
	const perKey = 5
	tags := []int{10, 11, 12}
	_, err := RunContext(context.Background(), testCfg(3), func(r *Rank) {
		for round := 0; round < 2; round++ {
			base := 100 * round
			if r.ID() != 0 {
				for i := 0; i < perKey; i++ {
					for _, tag := range tags {
						r.Send(0, base+tag, []float64{float64(r.ID()), float64(base + tag), float64(i)})
					}
				}
			}
			if round == 1 {
				r.Barrier(r.World())
			}
			if r.ID() != 0 {
				continue
			}
			for ti := len(tags) - 1; ti >= 0; ti-- {
				tag := base + tags[ti]
				for _, src := range []int{2, 1} {
					for i := 0; i < perKey; i++ {
						got := r.Recv(src, tag)
						want := []float64{float64(src), float64(tag), float64(i)}
						if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
							t.Errorf("round %d: Recv(%d, %d) #%d = %v, want %v", round, src, tag, i, got, want)
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReverseTagBurst queues a 1000-message burst on distinct tags and
// receives it in reverse tag order, so every receive but the last
// matches the newest pending message rather than the oldest.
func TestReverseTagBurst(t *testing.T) {
	const msgs = 1000
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() == 0 {
			for m := 0; m < msgs; m++ {
				r.Send(1, m, []float64{float64(m)})
			}
			r.Barrier(r.World())
			return
		}
		r.Barrier(r.World())
		for m := msgs - 1; m >= 0; m-- {
			if got := r.Recv(0, m); len(got) != 1 || got[0] != float64(m) {
				t.Fatalf("Recv(0, %d) = %v, want [%d]", m, got, m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// A receiver that was "in the past" is pulled forward to the message
	// arrival; a receiver already "in the future" keeps its clock.
	k := perfmodel.Kernel{Name: "k", CPUFrac: 1.0}
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(k, 7.6e9) // ~1 virtual second
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0)
			if r.Now() < 1.0 {
				t.Errorf("receiver clock %g did not advance past sender's send time", r.Now())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRing(t *testing.T) {
	const p = 8
	rep, err := RunContext(context.Background(), testCfg(p), func(r *Rank) {
		right := (r.ID() + 1) % p
		left := (r.ID() + p - 1) % p
		got := r.Sendrecv(right, 0, []float64{float64(r.ID())}, left, 0)
		if got[0] != float64(left) {
			t.Errorf("rank %d got %v from left, want %d", r.ID(), got, left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != p {
		t.Errorf("messages %d, want %d", rep.Messages, p)
	}
}

func TestNominalBytesChargedNotActual(t *testing.T) {
	// Two runs exchanging the same tiny slice, one charging 8 bytes and
	// one charging 8 MB: the nominal run must take much longer.
	run := func(nom float64) float64 {
		rep, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
			if r.ID() == 0 {
				r.SendNominal(1, 0, []float64{1}, nom)
			} else {
				r.Recv(0, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	small, big := run(8), run(8<<20)
	if big < small*10 {
		t.Errorf("nominal charging ineffective: %g vs %g", small, big)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// The same program must produce bit-identical virtual results no
	// matter how the host schedules goroutines.
	prog := func(r *Rank) {
		k := perfmodel.Kernel{Name: "k", CPUFrac: 0.3, BytesPerFlop: 0.5}
		w := r.World()
		r.Compute(k, float64(1000*(r.ID()+1)))
		r.Allreduce(w, []float64{float64(r.ID()) * 0.1}, OpSum)
		next := (r.ID() + 1) % r.N()
		prev := (r.ID() + r.N() - 1) % r.N()
		r.Sendrecv(next, 0, []float64{float64(r.ID())}, prev, 0)
		r.Barrier(w)
	}
	var walls []float64
	for i := 0; i < 3; i++ {
		rep, err := RunContext(context.Background(), testCfg(16), prog)
		if err != nil {
			t.Fatal(err)
		}
		walls = append(walls, rep.Wall)
	}
	if walls[0] != walls[1] || walls[1] != walls[2] {
		t.Errorf("nondeterministic walls: %v", walls)
	}
}

func TestPanicInRankAbortsRun(t *testing.T) {
	_, err := RunContext(context.Background(), testCfg(4), func(r *Rank) {
		if r.ID() == 2 {
			panic("boom")
		}
		// Other ranks block forever without the abort mechanism.
		r.Recv(3, 99)
	})
	if err == nil {
		t.Fatal("rank panic not reported")
	}
}

func TestTraceCollectorRecordsMatrix(t *testing.T) {
	tc := commmatrix.NewCollector(4)
	cfg := testCfg(4)
	cfg.Collector = tc
	_, err := RunContext(context.Background(), cfg, func(r *Rank) {
		next := (r.ID() + 1) % 4
		r.Send(next, 0, make([]float64, 128))
		r.Recv((r.ID()+3)%4, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tc.Matrix()
	if m == nil {
		t.Fatal("no matrix recorded")
	}
	if m[0][1] != 1024 {
		t.Errorf("matrix[0][1] = %g, want 1024 bytes", m[0][1])
	}
	if m[0][2] != 0 {
		t.Errorf("matrix[0][2] = %g, want 0", m[0][2])
	}
}

// TestRunContextCancelAbortsMidRun: cancelling the context unwinds a
// run that would otherwise keep communicating, through the same abort
// path a rank failure uses, and returns the context's error.
func TestRunContextCancelAbortsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	_, err := RunContext(ctx, testCfg(4), func(r *Rank) {
		once.Do(func() { close(started) })
		// Communicate forever; only the abort can end this.
		for i := 0; ; i++ {
			r.AllreduceScalar(r.World(), float64(i), OpSum)
			if i == 4 {
				<-started // provably past the first reductions
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRunContextCancelReturnsCause: a run cancelled with a cause
// returns that cause, not the bare context.Canceled.
func TestRunContextCancelReturnsCause(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	_, err := RunContext(ctx, testCfg(4), func(r *Rank) {
		if r.ID() == 0 {
			cancel(cause)
		}
		// Communicate forever; only the abort can end this.
		for {
			r.Barrier(r.World())
		}
	})
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled run returned %v, want %v", err, cause)
	}
}

// TestRunContextPreCancelled: an already-dead context never starts the
// world.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := RunContext(ctx, testCfg(2), func(*Rank) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("rank body ran under a pre-cancelled context")
	}
}

// TestRunContextCompletedRunUnaffected: a context that stays live never
// perturbs the result — the report matches a plain Run.
func TestRunContextCompletedRunUnaffected(t *testing.T) {
	body := func(r *Rank) {
		r.AllreduceScalar(r.World(), 1, OpSum)
	}
	plain, err := RunContext(context.Background(), testCfg(4), body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunContext(ctx, testCfg(4), body)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Wall != withCtx.Wall {
		t.Fatalf("ctx-bearing run wall %g != plain run wall %g", withCtx.Wall, plain.Wall)
	}
}
