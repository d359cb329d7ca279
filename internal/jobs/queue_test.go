package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// fakeExec is a scriptable Executor: each hook defaults to instant
// success so tests only script the part they exercise.
type fakeExec struct {
	validate func(Spec) error
	run      func(ctx context.Context, spec Spec, report func(Progress)) error
	runs     atomic.Int64
}

func (f *fakeExec) Validate(spec Spec) error {
	if f.validate != nil {
		return f.validate(spec)
	}
	return nil
}

func (f *fakeExec) Run(ctx context.Context, spec Spec, report func(Progress)) error {
	f.runs.Add(1)
	if f.run != nil {
		return f.run(ctx, spec, report)
	}
	return nil
}

func (f *fakeExec) WriteResult(ctx context.Context, w io.Writer, spec Spec) error {
	_, err := fmt.Fprintf(w, "result:%s\n", spec.Kind)
	return err
}

// startServe runs the dispatcher in the background and returns a stop
// func that cancels it and waits for it to unwind.
func startServe(t *testing.T, q *Queue) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Serve(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// waitState watches the job until it reaches want, failing on timeout
// or on landing in a different terminal state.
func waitState(t *testing.T, q *Queue, id string, want State) Job {
	t.Helper()
	ch, unsub, err := q.Watch(id)
	if err != nil {
		t.Fatalf("watch %s: %v", id, err)
	}
	defer unsub()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case j := <-ch:
			if j.State == want {
				return j
			}
			if j.State.Terminal() {
				t.Fatalf("job %s finished %s (error %q), want %s", id, j.State, j.Error, want)
			}
		case <-deadline:
			j, _ := q.Get(id)
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	exec := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		report(Progress{Total: 3})
		for i := 1; i <= 3; i++ {
			report(Progress{Total: 3, Done: i, Simulated: i})
		}
		return nil
	}}
	q, err := Open("", Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer startServe(t, q)()

	job, err := q.Submit(Spec{Kind: KindSweep}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued || job.ID == "" || job.Schema != SchemaVersion {
		t.Fatalf("submitted job %+v", job)
	}
	final := waitState(t, q, job.ID, StateDone)
	if final.Progress.Total != 3 || final.Progress.Done != 3 || final.Progress.Simulated != 3 {
		t.Fatalf("final progress %+v", final.Progress)
	}
	if final.Started.IsZero() || final.Finished.IsZero() || final.Finished.Before(final.Started) {
		t.Fatalf("timestamps out of order: %+v", final)
	}
	st := q.Stats()
	if st.Done != 1 || st.Submitted != 1 || st.Queued+st.Running+st.Failed+st.Cancelled != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	exec := &fakeExec{}
	exec.run = func(ctx context.Context, spec Spec, report func(Progress)) error {
		// The failed attempts get through all three points; the winning
		// one reports nothing, so its progress is whatever the queue
		// cleared the counters to before it started.
		if exec.runs.Load() <= 2 {
			report(Progress{Total: 3, Done: 3, Simulated: 3})
			return errors.New("transient")
		}
		return nil
	}
	q, err := Open("", Config{Executor: exec, MaxRetries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer startServe(t, q)()

	job, err := q.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, q, job.ID, StateDone)
	if final.Retries != 2 {
		t.Fatalf("job retried %d times, want 2", final.Retries)
	}
	// Each attempt starts from cleared counters, so only the winning
	// attempt's (empty) progress shows.
	if final.Progress != (Progress{}) {
		t.Fatalf("progress carried over across attempts: %+v", final.Progress)
	}
	if st := q.Stats(); st.Retries != 2 {
		t.Fatalf("stats retries = %d, want 2", st.Retries)
	}
}

func TestRetriesExhaustedFailsForGood(t *testing.T) {
	exec := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		return errors.New("persistent breakage")
	}}
	q, err := Open("", Config{Executor: exec, MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer startServe(t, q)()

	job, err := q.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, q, job.ID, StateFailed)
	if final.Error != "persistent breakage" || final.Retries != 1 {
		t.Fatalf("failed job %+v", final)
	}
	if exec.runs.Load() != 2 {
		t.Fatalf("executor ran %d times, want 2 (first attempt + 1 retry)", exec.runs.Load())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// No dispatcher: the job stays queued until cancelled.
	q, err := Open("", Config{Executor: &fakeExec{}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Cancel(job.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel = %+v, %v", got, err)
	}
	if _, err := q.Cancel(job.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel = %v, want ErrTerminal", err)
	}
	if _, err := q.Cancel("no-such-id"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	exec := &fakeExec{run: func(ctx context.Context, spec Spec, report func(Progress)) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}}
	q, err := Open("", Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer startServe(t, q)()

	job, err := q.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got, err := q.Cancel(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Fatalf("cancel snapshot is %s, want running (the executor had not unwound yet)", got.State)
	}
	final := waitState(t, q, job.ID, StateCancelled)
	if final.Error != "" {
		t.Fatalf("cancelled job carries error %q", final.Error)
	}
	// Cancellation must not burn retries.
	if final.Retries != 0 {
		t.Fatalf("cancelled job retried %d times", final.Retries)
	}
}

func TestBadSpecRejectedAtSubmit(t *testing.T) {
	exec := &fakeExec{validate: func(spec Spec) error {
		return errors.New("no such app")
	}}
	q, err := Open("", Config{Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Kind: KindSweep}, ""); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("submit = %v, want ErrBadSpec", err)
	}
	if n := len(q.List(Filter{})); n != 0 {
		t.Fatalf("%d jobs queued from a rejected spec", n)
	}
}

func TestPerClientQuota(t *testing.T) {
	// No dispatcher: submitted jobs pile up as queued.
	q, err := Open("", Config{Executor: &fakeExec{}, MaxActivePerClient: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Spec{Kind: KindSweep}, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	_, err = q.Submit(Spec{Kind: KindSweep}, "alice")
	var busy *TooBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("third submit = %v, want TooBusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("quota rejection suggests Retry-After %s", busy.RetryAfter)
	}
	// The quota is per client, and terminal jobs do not count.
	if _, err := q.Submit(Spec{Kind: KindSweep}, "bob"); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	jobs := q.List(Filter{Client: "alice"})
	if _, err := q.Cancel(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Kind: KindSweep}, "alice"); err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}
	if st := q.Stats(); st.QuotaRejected != 1 {
		t.Fatalf("stats quota rejections = %d, want 1", st.QuotaRejected)
	}
}

func TestSubmitRateLimit(t *testing.T) {
	q, err := Open("", Config{Executor: &fakeExec{}, SubmitRate: 1, SubmitBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the bucket with a fake clock so the test is instant.
	clock := time.Unix(1700000000, 0)
	q.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Spec{Kind: KindSweep}, "alice"); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err = q.Submit(Spec{Kind: KindSweep}, "alice")
	var busy *TooBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-rate submit = %v, want TooBusyError", err)
	}
	if busy.RetryAfter <= 0 || busy.RetryAfter > time.Second {
		t.Fatalf("rate rejection suggests Retry-After %s, want (0, 1s]", busy.RetryAfter)
	}
	// Another client has its own bucket.
	if _, err := q.Submit(Spec{Kind: KindSweep}, "bob"); err != nil {
		t.Fatalf("other client rate-limited: %v", err)
	}
	// One second refills one token.
	clock = clock.Add(time.Second)
	if _, err := q.Submit(Spec{Kind: KindSweep}, "alice"); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	if st := q.Stats(); st.RateLimited != 1 {
		t.Fatalf("stats rate rejections = %d, want 1", st.RateLimited)
	}
}

func TestListFilters(t *testing.T) {
	q, err := Open("", Config{Executor: &fakeExec{}})
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := q.Submit(Spec{Kind: KindSweep}, "alice")
	fig, _ := q.Submit(Spec{Kind: KindFigure, Figure: 3}, "bob")
	if _, err := q.Cancel(fig.ID); err != nil {
		t.Fatal(err)
	}
	if got := q.List(Filter{}); len(got) != 2 {
		t.Fatalf("unfiltered list has %d jobs", len(got))
	}
	if got := q.List(Filter{Kind: KindSweep}); len(got) != 1 || got[0].ID != sweep.ID {
		t.Fatalf("kind filter returned %+v", got)
	}
	if got := q.List(Filter{Client: "bob"}); len(got) != 1 || got[0].ID != fig.ID {
		t.Fatalf("client filter returned %+v", got)
	}
	if got := q.List(Filter{State: StateCancelled}); len(got) != 1 || got[0].ID != fig.ID {
		t.Fatalf("state filter returned %+v", got)
	}
}

func TestWatchCoalescesToLatest(t *testing.T) {
	q, err := Open("", Config{Executor: &fakeExec{}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit(Spec{Kind: KindSweep}, "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := q.Watch(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	// Without draining the channel, pile up updates: the buffered
	// snapshot must be replaced, not block, and the terminal state must
	// be what a late reader sees.
	for i := 1; i <= 10; i++ {
		q.progress(job.ID, Progress{Done: i})
	}
	if _, err := q.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.State != StateCancelled || got.Progress.Done != 10 {
		t.Fatalf("late watcher read %+v, want the final snapshot", got)
	}
}

func TestOpenRequiresExecutor(t *testing.T) {
	if _, err := Open("", Config{}); err == nil {
		t.Fatal("Open accepted a config without an executor")
	}
}
