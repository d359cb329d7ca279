package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/runner"
)

// pinnedAccounting is every served-from report of the traffic in
// TestAccountingPinned, in request order. Polling a job's record reads
// only its state and progress, so the root pool's totals count exactly
// the points the requests and job attempts dispatched.
const pinnedAccounting = `cold sweep X-Petasim-Points: 1
cold sweep X-Petasim-Simulated: 1
cold sweep X-Petasim-Mem-Hits: 0
cold sweep X-Petasim-Disk-Hits: 0
cold sweep X-Petasim-Deduped: 0
warm sweep X-Petasim-Points: 1
warm sweep X-Petasim-Simulated: 0
warm sweep X-Petasim-Mem-Hits: 1
warm sweep X-Petasim-Disk-Hits: 0
warm sweep X-Petasim-Deduped: 0
stream {"stats":{"points":3,"simulated":2,"mem_hits":1,"disk_hits":0,"deduped":0}}
sweep job progress {"total":4,"done":4,"failed":0,"simulated":1,"mem_hits":2,"disk_hits":1,"deduped":0}
figure job progress {"total":5,"done":5,"failed":0,"simulated":5,"mem_hits":0,"disk_hits":0,"deduped":0}
whatif job progress {"total":3,"done":3,"failed":0,"simulated":3,"mem_hits":0,"disk_hits":0,"deduped":0}
petasim_points_total{served="simulated"} 12
petasim_points_total{served="mem"} 4
petasim_points_total{served="disk"} 1
petasim_points_total{served="dedup"} 0`

// TestAccountingPinned drives one fixed sequence of synchronous,
// streaming and async traffic through a serial two-tier pool whose
// memory tier is small enough to evict, and pins every surface that
// reports the served-from split: the X-Petasim-* cost headers, the
// stream's trailing stats line, each job's final progress object, and
// the petasim_points_total samples.
func TestAccountingPinned(t *testing.T) {
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 1, Cache: cache, Mem: runner.NewMemCache(2)}
	opts := experiments.Options{Quick: true, MaxProcs: 64, Runner: pool}
	q, err := jobs.Open("", jobs.Config{Executor: jobs.NewExecutor(opts), MaxRunning: 1})
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

	var got []string
	headers := func(label string, resp *http.Response) {
		for _, h := range []string{"Points", "Simulated", "Mem-Hits", "Disk-Hits", "Deduped"} {
			got = append(got, fmt.Sprintf("%s X-Petasim-%s: %s", label, h, resp.Header.Get("X-Petasim-"+h)))
		}
	}
	const sweep = "/v1/sweep?app=gtc&machine=bassi&procs=64"
	resp, _ := get(t, ts.URL+sweep)
	headers("cold sweep", resp)
	resp, _ = get(t, ts.URL+sweep)
	headers("warm sweep", resp)

	_, body := get(t, ts.URL+"/v1/sweep/stream?app=gtc&machine=bassi,jaguar,jacquard&procs=64")
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	got = append(got, "stream "+lines[len(lines)-1])

	for _, job := range []struct{ label, spec string }{
		{"sweep job", `{"kind":"sweep","apps":["gtc"],"machines":["jacquard","jaguar","bassi","phoenix"],"procs":[64]}`},
		{"figure job", `{"kind":"figure","figure":2}`},
		{"whatif job", `{"kind":"whatif","apps":["gtc"],"machines":["bassi"],"procs":[64],"perturb":"stream=20"}`},
	} {
		submitted, resp := submitJob(t, ts, job.spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", job.label, resp.StatusCode)
		}
		var rec struct {
			Progress json.RawMessage `json:"progress"`
		}
		if err := json.Unmarshal(pollDone(t, ts, submitted.ID), &rec); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec.Progress); err != nil {
			t.Fatal(err)
		}
		got = append(got, job.label+" progress "+compact.String())
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "petasim_points_total") {
			got = append(got, line)
		}
	}
	if joined := strings.Join(got, "\n"); joined != pinnedAccounting {
		t.Fatalf("served-from accounting\n got:\n%s\nwant:\n%s", joined, pinnedAccounting)
	}
}
