package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/obs"
)

// coldJobProcs is the concurrency axis of the job specs: with every
// registered workload and every modelled machine it spans the 216
// distinct sweep points up to 128 processors.
var coldJobProcs = []int{4, 8, 16, 32, 64, 128}

// setUpColdJobs starts the job-queue service over a fresh directory
// and opens one keep-alive connection per client. Jobs publish their
// traces to jobSink.
func setUpColdJobs(e env, jobSink *obs.Sink) (*service, []*http.Client, error) {
	svc, err := startService(e.tmp, 128, e.workers, true, jobSink)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*http.Client, e.workers)
	var buf bytes.Buffer
	for i := range clients {
		clients[i] = newClient()
		if _, err := get(clients[i], svc.base+"/healthz", &buf); err != nil {
			svc.close()
			return nil, nil, err
		}
	}
	return svc, clients, nil
}

// coldJobSpecs draws every spec once. The seed orders the machines;
// each machine's specs follow in ascending concurrency, with the
// workloads in registry order. This order is a choice, not observed
// usage: its fixed structure keeps cross-job effects the same for every
// seed:
// the first machine pays for the HyperCLaw trajectories that later
// machines replay, and heavy jobs share the simulation slots with the
// same neighbours, so peak memory and the latency tail measure the
// service rather than which jobs a seed happened to pair.
func coldJobSpecs(seed int64) []jobs.Spec {
	rng := rand.New(rand.NewSource(seed))
	machines := machine.All()
	rng.Shuffle(len(machines), func(i, j int) { machines[i], machines[j] = machines[j], machines[i] })
	var specs []jobs.Spec
	for _, m := range machines {
		for _, p := range coldJobProcs {
			for _, wl := range apps.Workloads() {
				specs = append(specs, jobs.Spec{Kind: jobs.KindSweep, Apps: []string{wl.Name()}, Machines: []string{m.Name}, Procs: []int{p}})
			}
		}
	}
	return specs
}

// jobOp is one submit → stream → result operation's record.
type jobOp struct {
	spec               jobs.Spec
	id                 string
	total              time.Duration // submit until the result is read
	submit, result     time.Duration // the POST and the result GET alone
	queueWait, running time.Duration // from the job record's timestamps
	body               []byte
	err                error
}

// runServeColdJobs submits every sweep point up to 128 processors as an
// async job, in a seeded order, from one closed-loop client per CPU.
// Each operation posts the spec, follows the job's stream until it is
// terminal, and reads its result; after the timed phase each result must
// equal the synchronous /v1/sweep body for the same selectors.
func runServeColdJobs(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var err error
	if !e.traced && !e.twin {
		if out.e2e["setup_s"], err = probeSetup(ctx, "serve_cold_jobs"); err != nil {
			return nil, err
		}
	}
	specs := coldJobSpecs(e.seed)
	// An untraced run keeps the sink `petasim serve` gives the queue. The
	// untraced twin of a traced run has none, so its jobs are not traced.
	// The traced run's own sink retains every job's trace, so the traces
	// are read after the timed phase rather than fetched inside it; the
	// service's sink holds only the latest 64.
	jobSink := obs.DefaultSink
	switch {
	case e.twin:
		jobSink = nil
	case e.traced:
		jobSink = obs.NewSink(len(specs))
	}
	svc, clients, err := setUpColdJobs(e, jobSink)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	statsBefore := svc.pool.Stats()
	storeBefore, _ := svc.pool.StoreStats()
	var rt runtimeDelta
	rt.start()
	ops := make([]jobOp, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				ops[i].spec = specs[i]
				runJob(ctx, c, svc.base, &ops[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	rt.stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	statsAfter := svc.pool.Stats()
	storeAfter, _ := svc.pool.StoreStats()

	// The jobs contract: a result is byte-identical to the synchronous
	// sweep for the same selectors, which the warm store now serves.
	var buf bytes.Buffer
	lat := make([]time.Duration, len(ops))
	for i := range ops {
		op := &ops[i]
		lat[i] = op.total
		if op.err == nil {
			q := sweepQuery(op.spec.Apps[0], op.spec.Machines, op.spec.Procs)
			if _, err := get(clients[0], svc.base+"/v1/sweep?"+q, &buf); err != nil {
				op.err = err
			} else if !bytes.Equal(buf.Bytes(), op.body) {
				op.err = fmt.Errorf("job result for %s differs from the synchronous sweep", q)
			}
		}
		out.attempted++
		if op.err != nil {
			if out.failed == 0 {
				out.problem("first failed job: %v", op.err)
			}
			out.failed++
		}
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}

	latencyMetrics(out.e2e, lat, wall)
	if out.e2e["peak_mem_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !e.traced {
		return out, nil
	}

	spans := newSpanAgg()
	var submit, result, wait, running []time.Duration
	for _, op := range ops {
		if op.id == "" {
			continue // never submitted: already counted as failed
		}
		tr, err := retainedTrace(jobSink, op.id)
		if err != nil {
			return nil, err
		}
		if err := spans.addTrace(tr); err != nil {
			return nil, err
		}
		submit, result = append(submit, op.submit), append(result, op.result)
		wait, running = append(wait, op.queueWait), append(running, op.running)
	}
	out.layer["server.submit_p50_ms"] = quantile(sortedMillis(submit), 0.5)
	out.layer["server.result_p50_ms"] = quantile(sortedMillis(result), 0.5)
	out.layer["jobs.queue_wait_p50_ms"] = quantile(sortedMillis(wait), 0.5)
	out.layer["jobs.run_p50_ms"] = quantile(sortedMillis(running), 0.5)
	qs := svc.queue.Stats()
	out.layer["jobs.retries"] = float64(qs.Retries)
	out.layer["jobs.rejected"] = float64(qs.RateLimited + qs.QuotaRejected)
	walBytes, err := dirBytes(svc.queue.Dir())
	if err != nil {
		return nil, err
	}
	out.layer["jobs.wal_kb"] = float64(walBytes) / 1024
	poolLayer(out.layer, statsBefore, statsAfter)
	storeLayer(out.layer, storeBefore, storeAfter)
	rt.fill(out.layer, len(ops))
	spans.fill(out.layer)
	return out, nil
}

// runJob performs one operation, filling op.
func runJob(ctx context.Context, c *http.Client, base string, op *jobOp) {
	body, err := json.Marshal(op.spec)
	if err != nil {
		op.err = err
		return
	}
	var buf bytes.Buffer
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		op.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fetch(c, req, &buf)
	op.submit = time.Since(t0)
	if err != nil {
		op.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		op.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
		return
	}
	var job jobs.Job
	if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
		op.err = fmt.Errorf("submit response: %w", err)
		return
	}
	op.id = job.ID
	final, err := followJob(ctx, c, base, job.ID)
	if err != nil {
		op.err = err
		return
	}
	if final.State != jobs.StateDone {
		op.err = fmt.Errorf("job %s ended %s: %s", job.ID, final.State, final.Error)
		return
	}
	op.queueWait = final.Started.Sub(final.Created)
	op.running = final.Finished.Sub(final.Started)
	r0 := time.Now()
	if _, err := get(c, base+"/v1/jobs/"+job.ID+"/result", &buf); err != nil {
		op.err = err
		return
	}
	op.result = time.Since(r0)
	op.total = time.Since(t0)
	op.body = append([]byte(nil), buf.Bytes()...)
}

// followJob reads the job's NDJSON stream until a terminal snapshot.
func followJob(ctx context.Context, c *http.Client, base, id string) (jobs.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return jobs.Job{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var job jobs.Job
		if err := json.Unmarshal(sc.Bytes(), &job); err != nil {
			return jobs.Job{}, fmt.Errorf("stream %s: %w", id, err)
		}
		if job.State.Terminal() {
			return job, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Job{}, fmt.Errorf("stream %s: %w", id, err)
	}
	return jobs.Job{}, fmt.Errorf("stream %s ended before the job did", id)
}

// retainedTrace returns the job's trace from sink. The queue publishes
// it just after the job turns terminal, so its absence is retried
// briefly.
func retainedTrace(sink *obs.Sink, id string) (*obs.Trace, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tr, ok := sink.Get(id); ok {
			return tr, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no trace retained for job %s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
