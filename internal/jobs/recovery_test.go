package jobs

import (
	"context"
	"log/slog"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// countRequeues counts the durable running→queued transitions in one
// job's log — the recovery re-enqueue marker.
func countRequeues(t *testing.T, dir, id string) int {
	t.Helper()
	data, err := os.ReadFile(walPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	_, entries, err := parseWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, e := range entries {
		if e.Op == opState && e.State == StateQueued && i > 0 {
			n++
		}
	}
	return n
}

// TestCrashRecovery kills a queue mid-job (cancelling Serve's context
// without any clean-shutdown bookkeeping — by design the same durable
// state a SIGKILL leaves) and restarts on the same jobs dir: the
// running job is re-enqueued exactly once, the queued job resumes, and
// both run to completion under the new process.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// First incarnation: one job blocks "mid-run", a second waits
	// queued behind MaxRunning=1.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	blockExec := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		started <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	q1, err := Open(dir, Config{Executor: blockExec, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := startServe(t, q1)
	running, err := q1.Submit(Spec{Kind: KindSweep, Apps: []string{"a"}}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q1.Submit(Spec{Kind: KindFigure, Figure: 3}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, q1, running.ID, StateRunning)
	stop() // the crash: dispatcher dies with one job durably running
	if j, _ := q1.Get(running.ID); j.State != StateRunning {
		t.Fatalf("dead process left job in %s, want the durable running state", j.State)
	}

	// Second incarnation, same dir: recovery re-enqueues the running
	// job (exactly once, durably) and keeps the queued one.
	exec2 := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		report(Progress{Total: 1})
		report(Progress{Total: 1, Done: 1, Simulated: 1})
		return nil
	}}
	q2, err := Open(dir, Config{Executor: exec2, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if j, ok := q2.Get(id); !ok || j.State != StateQueued {
			t.Fatalf("job %s recovered as %s (found %v), want queued", id, j.State, ok)
		}
	}
	if n := countRequeues(t, dir, running.ID); n != 1 {
		t.Fatalf("running job logged %d requeues, want exactly 1", n)
	}
	if n := countRequeues(t, dir, queued.ID); n != 0 {
		t.Fatalf("queued job logged %d requeues, want 0", n)
	}
	// Recovery preserves submission order: the interrupted job (older)
	// dispatches before the one queued behind it.
	if jobs := q2.List(Filter{}); len(jobs) != 2 || jobs[0].ID != running.ID {
		t.Fatalf("recovered order %v", jobs)
	}

	defer startServe(t, q2)()
	waitState(t, q2, running.ID, StateDone)
	waitState(t, q2, queued.ID, StateDone)
	if n := exec2.runs.Load(); n != 2 {
		t.Fatalf("recovered queue ran %d attempts, want 2 (one per job)", n)
	}
}

// TestRecoveryIdempotentAcrossRestarts pins "re-enqueue exactly once":
// opening the same dir repeatedly without ever dispatching must not pile
// up requeue transitions — the first recovery already moved the job to
// queued, durably.
func TestRecoveryIdempotentAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	exec := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	q1, err := Open(dir, Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	stop := startServe(t, q1)
	job, err := q1.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, job.ID, StateRunning)
	stop()

	for restart := 1; restart <= 3; restart++ {
		q, err := Open(dir, Config{Executor: exec})
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := q.Get(job.ID); j.State != StateQueued {
			t.Fatalf("restart %d recovered job as %s", restart, j.State)
		}
		if n := countRequeues(t, dir, job.ID); n != 1 {
			t.Fatalf("after %d restarts the log holds %d requeues, want 1", restart, n)
		}
	}
}

// countingHandler is a slog.Handler that only counts the records it
// receives.
type countingHandler struct{ n *atomic.Int64 }

func (h countingHandler) Enabled(context.Context, slog.Level) bool  { return true }
func (h countingHandler) Handle(context.Context, slog.Record) error { h.n.Add(1); return nil }
func (h countingHandler) WithAttrs([]slog.Attr) slog.Handler        { return h }
func (h countingHandler) WithGroup(string) slog.Handler             { return h }

// TestRecoverySkipsCorruptLogs: one broken WAL must not take down the
// queue or the healthy jobs around it.
func TestRecoverySkipsCorruptLogs(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(dir, Config{Executor: &fakeExec{}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := q1.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, "deadbeefdeadbeef"), []byte("not json at all\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warned atomic.Int64
	q2, err := Open(dir, Config{
		Executor: &fakeExec{},
		Log:      slog.New(countingHandler{&warned}),
	})
	if err != nil {
		t.Fatalf("a corrupt log made Open fatal: %v", err)
	}
	if warned.Load() == 0 {
		t.Fatal("corrupt log skipped silently")
	}
	jobs := q2.List(Filter{})
	if len(jobs) != 1 || jobs[0].ID != good.ID || jobs[0].State != StateQueued {
		t.Fatalf("recovered %v, want only the healthy queued job", jobs)
	}
}

// TestTerminalJobsRecoverAsHistory: done/failed/cancelled jobs come
// back listable but inert — never re-enqueued.
func TestTerminalJobsRecoverAsHistory(t *testing.T) {
	dir := t.TempDir()
	exec := &fakeExec{}
	q1, err := Open(dir, Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	stop := startServe(t, q1)
	done, err := q1.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, done.ID, StateDone)
	stop()

	q2, err := Open(dir, Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := q2.Get(done.ID)
	if !ok || j.State != StateDone {
		t.Fatalf("terminal job recovered as %+v (found %v)", j, ok)
	}
	if st := q2.Stats(); st.Done != 1 || st.Queued != 0 {
		t.Fatalf("recovered stats %+v", st)
	}
	// And it is inert: cancel refuses, no dispatch happens.
	if _, err := q2.Cancel(done.ID); err != ErrTerminal {
		t.Fatalf("cancel of recovered terminal job = %v", err)
	}

	// Give a dispatcher a moment: the terminal job must not re-run.
	stop2 := startServe(t, q2)
	time.Sleep(50 * time.Millisecond)
	stop2()
	if n := exec.runs.Load(); n != 1 {
		t.Fatalf("executor ran %d times across both incarnations, want 1", n)
	}
}
