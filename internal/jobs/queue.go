package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Errors the queue hands back to API layers. TooBusyError (quota or
// rate limit) maps to 429 with Retry-After; ErrBadSpec to 400;
// ErrNotFound to 404; ErrTerminal to 409.
var (
	ErrNotFound = errors.New("jobs: no such job")
	ErrTerminal = errors.New("jobs: job already finished")
	ErrNotDone  = errors.New("jobs: job has not completed")
	ErrBadSpec  = errors.New("jobs: invalid spec")
)

// TooBusyError rejects a submission the client should retry later:
// the per-client token bucket ran dry, or the client is at its
// queued+running quota.
type TooBusyError struct {
	// Reason says which limit tripped, for the error body.
	Reason string
	// RetryAfter is the suggested backoff (the Retry-After header).
	RetryAfter time.Duration
}

func (e *TooBusyError) Error() string {
	return fmt.Sprintf("jobs: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Executor runs job specs — the seam between the queue (which owns
// durability, scheduling, retry, and cancellation) and the experiment
// engine (which owns simulation). NewExecutor binds the real engine;
// tests substitute fakes.
type Executor interface {
	// Validate rejects a spec that could never run (unknown workload,
	// bad selector) — checked at submission so bad jobs never queue.
	Validate(spec Spec) error
	// Run executes the spec under ctx, reporting a fresh Progress
	// snapshot of the attempt whenever its counters move (the queue
	// stores the latest one as the job's progress). A non-nil error
	// fails the attempt (the queue retries transient failures); a ctx
	// cancellation error must be returned promptly once ctx is done.
	Run(ctx context.Context, spec Spec, report func(Progress)) error
	// WriteResult writes the spec's completed artifact to w,
	// byte-identical to the synchronous endpoint's body for the same
	// request. For a completed job every point is in the result store,
	// so this re-executes the plan without re-simulating.
	WriteResult(ctx context.Context, w io.Writer, spec Spec) error
}

// Config tunes a Queue. The zero value of every knob picks a sensible
// default; Executor is required.
type Config struct {
	// Executor runs the jobs. Required.
	Executor Executor
	// MaxRunning bounds concurrently executing jobs (default 2). Each
	// running job still shares the one simulation pool, so this caps
	// queue-level interleaving, not total simulation concurrency.
	MaxRunning int
	// MaxRetries is how many times a transiently failed job re-runs
	// before it is failed for good (default 2).
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per retry
	// (default 250ms).
	RetryBackoff time.Duration
	// MaxActivePerClient caps one client's queued+running jobs;
	// 0 means unlimited.
	MaxActivePerClient int
	// SubmitRate is the per-client token-bucket refill rate in
	// submissions per second; 0 means unlimited. SubmitBurst is the
	// bucket capacity (default: SubmitRate rounded up, minimum 1).
	SubmitRate  float64
	SubmitBurst int
	// Log receives the queue's non-fatal warnings (a WAL append that
	// failed, a corrupt log skipped at recovery); nil falls back to a
	// human-readable logger on os.Stderr. Warnings about a specific job
	// carry a job=<id> field.
	Log *slog.Logger
	// Sink, if non-nil, retains one completed trace per executed job,
	// keyed by the job's ID — the trace GET /v1/trace/{id} serves for an
	// async submission. Nil disables job tracing entirely (the executor
	// runs on an untraced context, costing nothing).
	Sink *obs.Sink
}

// QueueStats is the queue section of /v1/stats: jobs by state plus the
// lifetime rejection and retry counters.
type QueueStats struct {
	Queued        int   `json:"queued"`
	Running       int   `json:"running"`
	Done          int   `json:"done"`
	Failed        int   `json:"failed"`
	Cancelled     int   `json:"cancelled"`
	Retries       int64 `json:"retries"`
	Submitted     int64 `json:"submitted"`
	RateLimited   int64 `json:"rate_limited"`
	QuotaRejected int64 `json:"quota_rejected"`
}

// Queue is the durable job queue: Submit persists and enqueues, Serve
// dispatches onto the executor, Cancel aborts, Get/List/Watch observe.
// All methods are safe for concurrent use. A Queue opened on a jobs
// directory recovers its state from the per-job WALs; an empty dir
// string runs ephemeral (no persistence, nothing to recover).
type Queue struct {
	dir string
	cfg Config
	now func() time.Time // test hook; time.Now outside tests

	mu       sync.Mutex
	jobs     map[string]*jobState
	pending  []string // queued job IDs, FIFO
	wake     chan struct{}
	buckets  map[string]*bucket
	retries  int64
	submits  int64
	rateRejs int64
	quotaRej int64
}

// jobState is a job plus its runtime-only attachments.
type jobState struct {
	job      Job
	cancel   context.CancelFunc // set while running
	deleted  bool               // Cancel arrived while running
	watchers map[chan Job]struct{}
}

// bucket is one client's submission token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// Open builds the queue, recovering persisted jobs when dir is
// non-empty: terminal jobs return as history, queued jobs re-enter the
// pending queue, and jobs that were running when the previous process
// died are re-enqueued exactly once (the requeue is itself a WAL
// transition, so a second restart sees a queued job, not a running
// one). A corrupt log is warned about and skipped, never fatal.
// Dispatch starts when the caller runs Serve.
func Open(dir string, cfg Config) (*Queue, error) {
	if cfg.Executor == nil {
		return nil, errors.New("jobs: Config.Executor is required")
	}
	q := &Queue{
		dir:     dir,
		cfg:     cfg,
		now:     time.Now,
		jobs:    make(map[string]*jobState),
		wake:    make(chan struct{}, 1),
		buckets: make(map[string]*bucket),
	}
	if dir == "" {
		return q, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: opening jobs dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading jobs dir: %w", err)
	}
	var recovered []*jobState
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".wal") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			q.warnf("jobs: skipping unreadable log %s: %v", ent.Name(), err)
			continue
		}
		job, _, err := parseWAL(data)
		if err != nil {
			q.warnf("jobs: skipping corrupt log %s: %v", ent.Name(), err)
			continue
		}
		if want := strings.TrimSuffix(ent.Name(), ".wal"); job.ID != want {
			q.warnf("jobs: skipping log %s: carries job id %q", ent.Name(), job.ID)
			continue
		}
		recovered = append(recovered, &jobState{job: job})
	}
	// Deterministic recovery order: submission time, then ID.
	sort.Slice(recovered, func(a, b int) bool {
		if !recovered[a].job.Created.Equal(recovered[b].job.Created) {
			return recovered[a].job.Created.Before(recovered[b].job.Created)
		}
		return recovered[a].job.ID < recovered[b].job.ID
	})
	for _, js := range recovered {
		if js.job.State == StateRunning {
			// The previous process died mid-run: re-enqueue, durably.
			js.job.State = StateQueued
			if err := appendWAL(dir, js.job.ID, walEntry{
				Schema: SchemaVersion, Op: opState, State: StateQueued, At: q.now(),
			}); err != nil {
				q.warnJob(js.job.ID, "jobs: recovering %s without persistence: %v", js.job.ID, err)
			}
		}
		q.jobs[js.job.ID] = js
		if js.job.State == StateQueued {
			q.pending = append(q.pending, js.job.ID)
		}
	}
	return q, nil
}

// Dir returns the queue's jobs directory ("" when ephemeral).
func (q *Queue) Dir() string { return q.dir }

func (q *Queue) warnf(format string, args ...any) {
	q.logger().Warn(fmt.Sprintf(format, args...))
}

// warnJob is warnf for warnings about one job, carrying the id as a
// job= field.
func (q *Queue) warnJob(id, format string, args ...any) {
	q.logger().Warn(fmt.Sprintf(format, args...), "job", id)
}

func (q *Queue) logger() *slog.Logger {
	if q.cfg.Log != nil {
		return q.cfg.Log
	}
	return defaultLog
}

// defaultLog keeps the queue's historical stderr destination, rendered
// through the shared human-readable handler.
var defaultLog = obs.NewLogger(os.Stderr, "petasim", slog.LevelInfo)

// Submit validates, persists, and enqueues one job for client,
// enforcing the per-client quota and token bucket. The returned record
// is the job's initial queued snapshot.
func (q *Queue) Submit(spec Spec, client string) (Job, error) {
	if err := q.cfg.Executor.Validate(spec); err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if wait, ok := q.takeToken(client); !ok {
		q.rateRejs++
		return Job{}, &TooBusyError{Reason: fmt.Sprintf("submission rate limit for client %q exceeded", client), RetryAfter: wait}
	}
	if max := q.cfg.MaxActivePerClient; max > 0 {
		active := 0
		for _, js := range q.jobs {
			if js.job.Client == client && !js.job.State.Terminal() {
				active++
			}
		}
		if active >= max {
			q.quotaRej++
			return Job{}, &TooBusyError{
				Reason:     fmt.Sprintf("client %q already has %d queued/running jobs (quota %d)", client, active, max),
				RetryAfter: time.Second,
			}
		}
	}
	job := Job{
		Schema:  SchemaVersion,
		ID:      newID(),
		Client:  client,
		Spec:    spec,
		State:   StateQueued,
		Created: q.now().UTC(),
	}
	if q.dir != "" {
		if err := appendWAL(q.dir, job.ID, walEntry{
			Schema: SchemaVersion, Op: opCreate, Job: &job, At: job.Created,
		}); err != nil {
			return Job{}, err // an unpersistable submission is refused outright
		}
	}
	q.jobs[job.ID] = &jobState{job: job}
	q.pending = append(q.pending, job.ID)
	q.submits++
	q.wakeLocked()
	return job, nil
}

// takeToken charges one submission against client's bucket; called
// with q.mu held. ok=false comes with the bucket's refill wait.
func (q *Queue) takeToken(client string) (time.Duration, bool) {
	rate := q.cfg.SubmitRate
	if rate <= 0 {
		return 0, true
	}
	burst := q.cfg.SubmitBurst
	if burst < 1 {
		burst = int(rate + 0.999)
		if burst < 1 {
			burst = 1
		}
	}
	now := q.now()
	b := q.buckets[client]
	if b == nil {
		// Bound the bucket map: drop buckets that have refilled to
		// full — they carry no more state than a fresh one.
		if len(q.buckets) >= 1024 {
			for c, old := range q.buckets {
				if old.tokens+now.Sub(old.last).Seconds()*rate >= float64(burst) {
					delete(q.buckets, c)
				}
			}
		}
		b = &bucket{tokens: float64(burst), last: now}
		q.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > float64(burst) {
		b.tokens = float64(burst)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / rate * float64(time.Second)), false
}

// wakeLocked nudges the dispatcher; called with q.mu held.
func (q *Queue) wakeLocked() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Serve dispatches queued jobs onto the executor until ctx is
// cancelled, running at most MaxRunning at once. On cancellation it
// waits for in-flight attempts to unwind (their contexts are children
// of ctx) and returns ctx's error; running jobs keep their durable
// "running" state, which is what a restarted queue re-enqueues — a
// clean shutdown and a crash recover identically, on purpose.
func (q *Queue) Serve(ctx context.Context) error {
	max := q.cfg.MaxRunning
	if max < 1 {
		max = 2
	}
	sem := make(chan struct{}, max)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		id, ok := q.waitPending(ctx)
		if !ok {
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			q.execute(ctx, id)
		}()
	}
}

// waitPending blocks until a queued job is available (popping it) or
// ctx is cancelled.
func (q *Queue) waitPending(ctx context.Context) (string, bool) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			id := q.pending[0]
			q.pending = q.pending[1:]
			q.mu.Unlock()
			return id, true
		}
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-ctx.Done():
			return "", false
		}
	}
}

// execute runs one job to a terminal state (or leaves it durably
// running if the dispatcher itself is shutting down), retrying
// transient failures with exponential backoff.
func (q *Queue) execute(ctx context.Context, id string) {
	q.mu.Lock()
	js := q.jobs[id]
	if js == nil || js.job.State != StateQueued {
		q.mu.Unlock()
		return // cancelled between pop and start
	}
	jobCtx, cancel := context.WithCancel(ctx)
	js.cancel = cancel
	spec := js.job.Spec
	// Transition under the same lock as the queued-state check, so a
	// concurrent Cancel sees either a queued job (and cancels it before
	// we get here) or a running one (and cancels jobCtx) — never a
	// popped-but-not-yet-running gap.
	q.transitionLocked(id, StateRunning, "")
	q.mu.Unlock()
	defer cancel()

	// The job's trace is keyed by its own ID, so the submitter of an
	// async job can fetch /v1/trace/{jobID} once it completes. Everything
	// the executor does — runner batches, store lookups, simmpi worlds —
	// nests under it via jobCtx.
	if q.cfg.Sink != nil {
		tr := obs.NewTrace(id, "jobs.execute")
		tr.Root().SetAttr("job", id)
		tr.Root().SetAttr("kind", spec.Kind)
		tr.Root().SetAttr("client", js.job.Client)
		jobCtx = obs.ContextWithTrace(jobCtx, tr)
		defer q.cfg.Sink.Publish(tr)
	}

	maxRetries := q.cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 2
	}
	backoff := q.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		q.resetProgress(id)
		attemptCtx, asp := obs.Start(jobCtx, "jobs.attempt")
		asp.SetInt("attempt", int64(attempt))
		err := q.cfg.Executor.Run(attemptCtx, spec, func(p Progress) { q.progress(id, p) })
		if err != nil {
			asp.SetAttr("error", err.Error())
		}
		asp.End()
		switch {
		case err == nil:
			q.transition(id, StateDone, "")
			return
		case jobCtx.Err() != nil:
			q.mu.Lock()
			deleted := js.deleted
			q.mu.Unlock()
			if deleted {
				q.transition(id, StateCancelled, "")
				return
			}
			// The dispatcher is shutting down, not the job: leave the
			// durable state running so recovery re-enqueues it.
			return
		case attempt >= maxRetries:
			q.transition(id, StateFailed, err.Error())
			return
		}
		q.noteRetry(id)
		_, bsp := obs.Start(jobCtx, "jobs.backoff")
		bsp.SetAttr("delay", backoff.String())
		select {
		case <-time.After(backoff):
			bsp.End()
		case <-jobCtx.Done():
			bsp.SetAttr("interrupted", "true")
			bsp.End()
			q.mu.Lock()
			deleted := js.deleted
			q.mu.Unlock()
			if deleted {
				q.transition(id, StateCancelled, "")
			}
			return
		}
		backoff *= 2
	}
}

// transition applies one state-machine edge, persists it, and notifies
// watchers. Invalid edges are programming errors and warned, not
// applied.
func (q *Queue) transition(id string, to State, errMsg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.transitionLocked(id, to, errMsg)
}

// transitionLocked is transition with q.mu already held.
func (q *Queue) transitionLocked(id string, to State, errMsg string) {
	js := q.jobs[id]
	if js == nil {
		return
	}
	if !validTransition(js.job.State, to) {
		q.warnJob(id, "jobs: dropping invalid transition %s → %s for %s", js.job.State, to, id)
		return
	}
	at := q.now().UTC()
	if q.dir != "" {
		if err := appendWAL(q.dir, id, walEntry{
			Schema: SchemaVersion, Op: opState, State: to, Error: errMsg, At: at,
		}); err != nil {
			// Same philosophy as a failed cache write: keep serving,
			// lose durability, say so.
			q.warnJob(id, "jobs: %s transition for %s not persisted: %v", to, id, err)
		}
	}
	js.job.State = to
	switch to {
	case StateRunning:
		if js.job.Started.IsZero() {
			js.job.Started = at
		}
	case StateDone, StateFailed, StateCancelled:
		js.job.Finished = at
		js.job.Error = errMsg
	}
	q.notifyLocked(js)
}

// noteRetry logs one transient failure re-run.
func (q *Queue) noteRetry(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	js := q.jobs[id]
	if js == nil {
		return
	}
	if q.dir != "" {
		if err := appendWAL(q.dir, id, walEntry{Schema: SchemaVersion, Op: opRetry, At: q.now().UTC()}); err != nil {
			q.warnJob(id, "jobs: retry for %s not persisted: %v", id, err)
		}
	}
	js.job.Retries++
	q.retries++
	q.notifyLocked(js)
}

// resetProgress clears the counters before an attempt, so a retry never
// shows the failed attempt's points. It does not notify: watchers see the
// cleared counters with the attempt's first report.
func (q *Queue) resetProgress(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if js := q.jobs[id]; js != nil {
		js.job.Progress = Progress{}
	}
}

// progress stores the executor's latest snapshot as the job's
// progress and notifies watchers.
func (q *Queue) progress(id string, p Progress) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if js := q.jobs[id]; js != nil {
		js.job.Progress = p
		q.notifyLocked(js)
	}
}

// Cancel aborts a job: a queued job is cancelled on the spot, a
// running job's context is cancelled and the job transitions once the
// executor unwinds. The returned snapshot is the state as of the call
// (a running job still reads running until it actually stops).
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	js := q.jobs[id]
	if js == nil {
		q.mu.Unlock()
		return Job{}, ErrNotFound
	}
	switch js.job.State {
	case StateQueued:
		for i, pid := range q.pending {
			if pid == id {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		q.transitionLocked(id, StateCancelled, "")
		job := js.job
		q.mu.Unlock()
		return job, nil
	case StateRunning:
		js.deleted = true
		cancel := js.cancel
		q.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return q.snapshot(id)
	default:
		job := js.job
		q.mu.Unlock()
		return job, ErrTerminal
	}
}

// WriteResult streams a completed job's artifact to w, byte-identical
// to the synchronous endpoint's body for the same spec (the executor
// re-executes the plan against the warm result store, so nothing
// re-simulates). ErrNotFound for unknown ids, ErrNotDone for jobs that
// have not finished successfully.
func (q *Queue) WriteResult(ctx context.Context, w io.Writer, id string) error {
	job, err := q.snapshot(id)
	if err != nil {
		return err
	}
	if job.State != StateDone {
		return fmt.Errorf("%w: job %s is %s", ErrNotDone, id, job.State)
	}
	return q.cfg.Executor.WriteResult(ctx, w, job.Spec)
}

// snapshot returns the job's current record.
func (q *Queue) snapshot(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	js := q.jobs[id]
	if js == nil {
		return Job{}, ErrNotFound
	}
	return js.job, nil
}

// Get returns one job's current record.
func (q *Queue) Get(id string) (Job, bool) {
	job, err := q.snapshot(id)
	return job, err == nil
}

// Filter selects jobs for List; zero fields match everything.
type Filter struct {
	// State keeps only jobs in this state.
	State State
	// Kind keeps only jobs of this spec kind.
	Kind string
	// Client keeps only one submitter's jobs.
	Client string
}

// List returns the matching jobs sorted by creation time then ID.
func (q *Queue) List(f Filter) []Job {
	q.mu.Lock()
	out := make([]Job, 0, len(q.jobs))
	for _, js := range q.jobs {
		j := js.job
		if f.State != "" && j.State != f.State {
			continue
		}
		if f.Kind != "" && j.Spec.Kind != f.Kind {
			continue
		}
		if f.Client != "" && j.Client != f.Client {
			continue
		}
		out = append(out, j)
	}
	q.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Watch subscribes to a job's updates: the returned channel delivers
// snapshot records, collapsing bursts to the latest (a slow consumer
// sees fresh state, never a backlog of stale snapshots — and the
// terminal snapshot is always the last delivery). The cancel func
// unsubscribes; the channel is never closed, so consumers stop on a
// Terminal() snapshot.
func (q *Queue) Watch(id string) (<-chan Job, func(), error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	js := q.jobs[id]
	if js == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Job, 1)
	if js.watchers == nil {
		js.watchers = make(map[chan Job]struct{})
	}
	js.watchers[ch] = struct{}{}
	sendLatest(ch, js.job) // the subscriber starts from the current state
	unsub := func() {
		q.mu.Lock()
		delete(js.watchers, ch)
		q.mu.Unlock()
	}
	return ch, unsub, nil
}

// notifyLocked pushes the job's latest snapshot to every watcher;
// called with q.mu held.
func (q *Queue) notifyLocked(js *jobState) {
	for ch := range js.watchers {
		sendLatest(ch, js.job)
	}
}

// sendLatest replaces the channel's buffered snapshot with the newer
// one instead of blocking — watchers always read the freshest state.
func sendLatest(ch chan Job, j Job) {
	for {
		select {
		case ch <- j:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

// Stats counts the queue's jobs by state plus its lifetime counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Retries: q.retries, Submitted: q.submits,
		RateLimited: q.rateRejs, QuotaRejected: q.quotaRej,
	}
	for _, js := range q.jobs {
		switch js.job.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}
