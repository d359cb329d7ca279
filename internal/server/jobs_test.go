package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/runner"
)

// newJobsServer builds a queue-backed server over a shared pool, with
// its dispatcher running for the test's lifetime.
func newJobsServer(t *testing.T, cfgEdit func(*jobs.Config)) (*httptest.Server, *runner.Pool) {
	t.Helper()
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 4, Cache: cache, Mem: runner.NewMemCache(256)}
	opts := experiments.Options{Quick: true, MaxProcs: 64, Runner: pool}
	cfg := jobs.Config{Executor: jobs.NewExecutor(opts), RetryBackoff: time.Millisecond}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	q, err := jobs.Open(filepath.Join(t.TempDir(), "jobs"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Serve(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })

	ts := httptest.NewServer(NewWithQueue(opts, q))
	t.Cleanup(ts.Close)
	return ts, pool
}

// submitJob POSTs a job spec and decodes the accepted record.
func submitJob(t *testing.T, ts *httptest.Server, spec string) (jobs.Job, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return job, resp
}

// pollDone polls the job record until it reaches done, returning the
// final body.
func pollDone(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		var job jobs.Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		switch job.State {
		case jobs.StateDone:
			return body
		case jobs.StateFailed, jobs.StateCancelled:
			t.Fatalf("job %s finished %s: %s", id, job.State, job.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, nil)

	job, resp := submitJob(t, ts, `{"kind":"sweep","apps":["GTC"],"machines":["Bassi"],"procs":[64]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location %q", loc)
	}
	if job.State != jobs.StateQueued || job.ID == "" {
		t.Fatalf("accepted job %+v", job)
	}

	final := pollDone(t, ts, job.ID)
	var rec jobs.Job
	if err := json.Unmarshal(final, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Progress.Total != 1 || rec.Progress.Done != 1 {
		t.Fatalf("done job progress %+v", rec.Progress)
	}

	// The async artifact is byte-identical to the synchronous endpoint's
	// body for the same selectors.
	resp2, artifact := get(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp2.StatusCode, artifact)
	}
	if want := cliSweepArtifact(t); !bytes.Equal(artifact, want) {
		t.Fatalf("job artifact differs from the sync sweep body:\njob:  %s\nsync: %s", artifact, want)
	}

	// List surfaces the job under its filters.
	respList, listBody := get(t, ts.URL+"/v1/jobs?state=done&kind=sweep")
	if respList.StatusCode != http.StatusOK {
		t.Fatalf("list status %d: %s", respList.StatusCode, listBody)
	}
	var list []jobs.Job
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("filtered list %+v", list)
	}
}

func TestJobResultBeforeDoneConflicts(t *testing.T) {
	ts, _ := newJobsServer(t, func(cfg *jobs.Config) {
		cfg.MaxRunning = 1
	})
	// Pile two jobs on a single-slot queue; the second is still
	// queued/running when we ask for its artifact.
	submitJob(t, ts, `{"kind":"sweep","apps":["GTC"],"machines":["Bassi"],"procs":[64]}`)
	second, _ := submitJob(t, ts, `{"kind":"sweep","apps":["GTC"],"machines":["Jaguar"],"procs":[64]}`)
	resp, body := get(t, ts.URL+"/v1/jobs/"+second.ID+"/result")
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early result status %d: %s", resp.StatusCode, body)
	}
}

func TestJobStreamDeliversTerminalSnapshot(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	job, _ := submitJob(t, ts, `{"kind":"whatif","apps":["GTC"],"machines":["Bassi"],"perturb":"latency=10%"}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var last jobs.Job
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || !last.State.Terminal() {
		t.Fatalf("stream ended after %d lines in state %s", lines, last.State)
	}
	if last.State != jobs.StateDone {
		t.Fatalf("job finished %s: %s", last.State, last.Error)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, func(cfg *jobs.Config) {
		cfg.MaxRunning = 1
	})
	// Block the single slot with a real job, then cancel one stuck
	// behind it while it is still queued.
	submitJob(t, ts, `{"kind":"figure","figure":7}`)
	victim, _ := submitJob(t, ts, `{"kind":"sweep","apps":["GTC"],"machines":["Bassi"],"procs":[64]}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got jobs.Job
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	if got.State != jobs.StateCancelled && got.State != jobs.StateRunning {
		t.Fatalf("cancelled job reads %s", got.State)
	}

	// Cancelling again conflicts once the job is terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
		resp2, err := http.DefaultClient.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode == http.StatusConflict {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second cancel still %d, want 409", resp2.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown ids are 404.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/ffffffffffffffff", nil)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel of unknown job = %d, want 404", resp3.StatusCode)
	}
}

func TestJobSubmitRejections(t *testing.T) {
	ts, _ := newJobsServer(t, func(cfg *jobs.Config) {
		cfg.MaxActivePerClient = 1
		cfg.MaxRunning = 1
	})

	// A bad spec is 400 with the validation error, not a queued dud.
	_, resp := submitJob(t, ts, `{"kind":"sweep","apps":["NoSuchCode"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected, so a typo'd selector cannot silently
	// become the everything-sweep.
	_, resp = submitJob(t, ts, `{"kind":"sweep","app":["GTC"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d, want 400", resp.StatusCode)
	}

	// Quota: one active job per client; the second submission from the
	// same client is 429 with Retry-After.
	if _, resp = submitJob(t, ts, `{"kind":"figure","figure":7}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	_, resp = submitJob(t, ts, `{"kind":"figure","figure":6}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// A distinct client (X-Petasim-Client) has its own quota.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"kind":"sweep","apps":["GTC"],"machines":["Bassi"],"procs":[64]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Petasim-Client", "other-team")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("distinct client status %d, want 202", resp2.StatusCode)
	}
}

func TestJobRateLimitOverHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, func(cfg *jobs.Config) {
		cfg.SubmitRate = 0.001 // one token per ~17min: the burst is all there is
		cfg.SubmitBurst = 1
	})
	if _, resp := submitJob(t, ts, `{"kind":"figure","figure":7}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst submit status %d", resp.StatusCode)
	}
	_, resp := submitJob(t, ts, `{"kind":"figure","figure":6}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 without a Retry-After header")
	}
}

func TestStatsGainsStoreAndJobsSections(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	job, _ := submitJob(t, ts, `{"kind":"sweep","apps":["GTC"],"machines":["Bassi"],"procs":[64]}`)
	pollDone(t, ts, job.ID)

	resp, body := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs == nil || st.Jobs.Done != 1 || st.Jobs.Submitted != 1 {
		t.Fatalf("jobs section %+v", st.Jobs)
	}
	if st.Store == nil || st.Store.Name != "tiered" || len(st.Store.Tiers) != 2 {
		t.Fatalf("store section %+v", st.Store)
	}
	if st.Store.Puts == 0 {
		t.Fatal("store section counted no puts after a simulating job")
	}
}

// TestJobsDisabledWithoutQueue pins the plain-New contract: the routes
// exist but answer 503.
func TestJobsDisabledWithoutQueue(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("jobs list on a queueless server = %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "-jobs-dir") {
		t.Fatalf("503 body does not point at the flag: %s", body)
	}
}
