package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
)

// service is a petasim server on an ephemeral loopback port, configured
// as `petasim -quick -max N -cache DIR serve [-jobs-dir DIR]` would.
type service struct {
	opts  experiments.Options
	pool  *runner.Pool
	queue *jobs.Queue
	base  string
	hs    *http.Server
	stop  context.CancelFunc
	wg    sync.WaitGroup
}

// queueConfig is the job queue's configuration for closed-loop load:
// no submission rate limit and a per-client quota above the client
// count, so a faster executor shows up as throughput, not as 429s. Jobs
// publish their traces to sink; a nil sink leaves them untraced.
func queueConfig(opts experiments.Options, workers int, sink *obs.Sink) jobs.Config {
	return jobs.Config{
		Executor:           jobs.NewExecutor(opts),
		MaxRunning:         workers,
		MaxActivePerClient: 4 * workers,
		SubmitRate:         0,
		Log:                obs.NewLogger(os.Stderr, "perfbench", slog.LevelInfo),
		Sink:               sink,
	}
}

// startService builds the server over dir (its disk cache and, with
// withJobs, the job WALs, the jobs publishing their traces to jobSink)
// and starts serving on 127.0.0.1:0.
func startService(dir string, maxProcs, workers int, withJobs bool, jobSink *obs.Sink) (*service, error) {
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	pool := &runner.Pool{Workers: workers, Cache: cache, Mem: runner.NewMemCache(runner.DefaultMemCapacity)}
	opts := experiments.Options{Quick: true, MaxProcs: maxProcs, Runner: pool, Machines: machfile.NewRegistry()}
	s := &service{opts: opts, pool: pool}
	handler := server.New(opts)
	if withJobs {
		if s.queue, err = jobs.Open(filepath.Join(dir, "jobs"), queueConfig(opts, workers, jobSink)); err != nil {
			return nil, err
		}
		handler = server.NewWithQueue(opts, s.queue)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	// The service owns its dispatcher's lifetime; close cancels it.
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if s.queue != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.queue.Serve(ctx) // returns ctx's error on close
		}()
	}
	return s, nil
}

// close stops the listener, the dispatcher and every connection, and
// waits for their goroutines.
func (s *service) close() {
	s.stop()
	s.hs.Close()
	s.wg.Wait()
}

// newClient is one closed-loop keep-alive client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// fetch GETs url into buf and returns the response.
func fetch(c *http.Client, req *http.Request, buf *bytes.Buffer) (*http.Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return resp, nil
}

// get is fetch for a URL, requiring 200.
func get(c *http.Client, u string, buf *bytes.Buffer) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := fetch(c, req, buf)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(buf.String()))
	}
	return resp, nil
}

// Request kinds of the serve_warm mix.
const (
	kindSweep = iota
	kindFigure
	kindStream
	kindMetrics
	nKinds
)

// warmProcs is the concurrency axis of the warm sweep universe: every
// workload × machine × one of these is warmed in set-up.
var warmProcs = []int{4, 8, 16, 32}

// warmRequest is one distinct request of the serve_warm mix with the
// body captured for it in set-up.
type warmRequest struct {
	kind int
	path string
	ref  []byte // body, or for streams its lines sorted
}

// sweepQuery renders sweep selectors as a query string.
func sweepQuery(app string, machines []string, procs []int) string {
	ps := make([]string, len(procs))
	for i, p := range procs {
		ps[i] = strconv.Itoa(p)
	}
	v := url.Values{"app": {app}, "machine": {strings.Join(machines, ",")}, "procs": {strings.Join(ps, ",")}}
	return v.Encode()
}

// randomSweep draws selectors of one workload from the warm universe:
// nm machines and np concurrencies.
func randomSweep(rng *rand.Rand, app string, machines []machine.Spec, nm, np int) string {
	mi := rng.Perm(len(machines))[:nm]
	sort.Ints(mi)
	ms := make([]string, nm)
	for i, j := range mi {
		ms[i] = machines[j].Name
	}
	pi := rng.Perm(len(warmProcs))[:np]
	sort.Ints(pi)
	ps := make([]int, np)
	for i, j := range pi {
		ps[i] = warmProcs[j]
	}
	return sweepQuery(app, ms, ps)
}

// The serve_warm traffic below is assumed, not observed: the repository
// records no request traffic, so its shares, query shapes and procs axis
// were chosen to fill the prescription "mostly single-application
// sweeps, plus figures 2–7, some streams and a small share of /metrics
// scrapes". Read serve_warm's figures as the cost of this mix, not of
// representative traffic.
//
// Query shapes (machines × concurrencies) of the sweeps and streams.
// Every workload gets one query of each shape, so the seed picks which
// machines and concurrencies are asked for, but not how many points a
// request carries: the cost of the mix does not depend on the seed.
var (
	warmSweepShapes  = [][2]int{{2, 2}, {3, 2}, {2, 3}, {3, 3}, {4, 2}, {2, 4}, {4, 3}, {3, 4}}
	warmStreamShapes = [][2]int{{2, 2}, {3, 3}}
)

// warmRequestsPerS is the length of the request sequence per --seconds:
// one to a few seconds of this mix on a two-CPU host, so the timed
// phase lasts seconds rather than milliseconds.
const warmRequestsPerS = 6000

// warmMix is the cumulative share of each request kind (assumed:
// 72% sweeps, 15% figures, 10% streams, 3% scrapes).
var warmMix = [nKinds]float64{kindSweep: 0.72, kindFigure: 0.87, kindStream: 0.97, kindMetrics: 1}

// buildWarmTraffic draws the distinct requests and the fixed-length
// request sequence from the seed.
func buildWarmTraffic(seed int64, n int, appNames []string, machines []machine.Spec) ([]warmRequest, []uint16) {
	rng := rand.New(rand.NewSource(seed))
	var table []warmRequest
	var byKind [nKinds][]int
	add := func(kind int, path string) {
		byKind[kind] = append(byKind[kind], len(table))
		table = append(table, warmRequest{kind: kind, path: path})
	}
	for _, app := range appNames {
		for _, sh := range warmSweepShapes {
			add(kindSweep, "/v1/sweep?"+randomSweep(rng, app, machines, sh[0], sh[1]))
		}
		for _, sh := range warmStreamShapes {
			add(kindStream, "/v1/sweep/stream?"+randomSweep(rng, app, machines, sh[0], sh[1]))
		}
	}
	for n := 2; n <= 7; n++ {
		add(kindFigure, fmt.Sprintf("/v1/figures/%d", n))
	}
	add(kindMetrics, "/metrics")

	seq := make([]uint16, n)
	for i := range seq {
		r, kind := rng.Float64(), 0
		for r >= warmMix[kind] {
			kind++
		}
		seq[i] = uint16(byKind[kind][rng.Intn(len(byKind[kind]))])
	}
	return table, seq
}

// sortedLines canonicalises an NDJSON stream body: points arrive in
// completion order, which varies with scheduling.
func sortedLines(body []byte) []byte {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// checkWarm validates one warm response against its captured body.
func checkWarm(req *warmRequest, resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", req.path, resp.Status)
	}
	switch req.kind {
	case kindMetrics:
		if !bytes.HasPrefix(body, []byte("# HELP ")) {
			return fmt.Errorf("%s: not a metrics exposition", req.path)
		}
		return nil
	case kindStream:
		if !bytes.Equal(sortedLines(body), req.ref) {
			return fmt.Errorf("%s: stream differs from the set-up capture", req.path)
		}
		return nil
	}
	if sim := resp.Header.Get("X-Petasim-Simulated"); sim != "0" {
		return fmt.Errorf("%s: X-Petasim-Simulated %q on a warm request", req.path, sim)
	}
	if !bytes.Equal(body, req.ref) {
		return fmt.Errorf("%s: body differs from the set-up capture", req.path)
	}
	return nil
}

// runServeWarm measures a warm service: set-up simulates every figure
// 2–7 point and the whole warm sweep universe once, captures a reference
// body for each distinct request, and the timed phase replays the seeded
// sequence from one closed-loop client per CPU. Nothing may simulate in
// the timed phase.
func runServeWarm(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	svc, err := startService(e.tmp, 64, e.workers, false, nil)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	machines := machine.All()
	var appNames []string
	for _, wl := range experiments.Table2() {
		appNames = append(appNames, wl.Name)
	}
	var names []string
	for _, m := range machines {
		names = append(names, m.Name)
	}
	var buf bytes.Buffer
	setupClient := newClient()
	defer setupClient.CloseIdleConnections()
	warm := []string{}
	for n := 2; n <= 7; n++ {
		warm = append(warm, fmt.Sprintf("/v1/figures/%d", n))
	}
	for _, app := range appNames {
		warm = append(warm, "/v1/sweep?"+sweepQuery(app, names, warmProcs))
	}
	for _, path := range warm {
		if _, err := get(setupClient, svc.base+path, &buf); err != nil {
			return nil, fmt.Errorf("warming: %w", err)
		}
	}
	table, seq := buildWarmTraffic(e.seed, warmRequestsPerS*e.seconds, appNames, machines)
	for i := range table {
		req := &table[i]
		resp, err := get(setupClient, svc.base+req.path, &buf)
		if err != nil {
			return nil, fmt.Errorf("capturing: %w", err)
		}
		req.ref = append([]byte(nil), buf.Bytes()...)
		if req.kind == kindStream {
			req.ref = sortedLines(req.ref)
		}
		if err := checkWarm(req, resp, buf.Bytes()); err != nil {
			return nil, fmt.Errorf("capturing: %w", err)
		}
	}
	setupClient.CloseIdleConnections()
	out.e2e["setup_s"] = time.Since(started).Seconds()

	var before handlerTime
	if e.traced {
		if before, err = scrapeHandlerTime(setupClient, svc.base); err != nil {
			return nil, err
		}
	}
	statsBefore := svc.pool.Stats()
	storeBefore, _ := svc.pool.StoreStats()
	var rt runtimeDelta
	rt.start()

	lat := make([]time.Duration, len(seq))
	begin := make([]time.Duration, len(seq)) // since t0
	size := make([]int32, len(seq))
	var traceIDs []string
	if e.traced {
		traceIDs = make([]string, len(seq))
	}
	var next atomic.Int64
	var failed atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	// Each client reuses its own prebuilt request per distinct query.
	clientReqs := make([][]*http.Request, e.workers)
	for c := range clientReqs {
		clientReqs[c] = make([]*http.Request, len(table))
		for i := range table {
			if clientReqs[c][i], err = http.NewRequestWithContext(ctx, http.MethodGet, svc.base+table[i].path, nil); err != nil {
				return nil, err
			}
		}
	}
	t0 := time.Now()
	for _, reqs := range clientReqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var body bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				r := &table[seq[i]]
				s0 := time.Now()
				begin[i] = s0.Sub(t0)
				resp, err := fetch(client, reqs[seq[i]], &body)
				lat[i] = time.Since(s0)
				if err == nil {
					size[i] = int32(body.Len())
					err = checkWarm(r, resp, body.Bytes())
					if traceIDs != nil {
						traceIDs[i] = resp.Header.Get("X-Petasim-Trace")
					}
				}
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	rt.stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	out.attempted, out.failed = len(seq), int(failed.Load())
	if firstErr != nil {
		out.problem("%d of %d requests failed; first: %v", out.failed, out.attempted, firstErr)
	}
	st := svc.pool.Stats()
	storeAfter, _ := svc.pool.StoreStats()
	if sim := st.Simulated - statsBefore.Simulated; sim != 0 {
		out.problem("the warm phase simulated %d points", sim)
	}
	segmentMetrics(out.e2e, e.seconds, begin, lat, wall)
	if out.e2e["peak_mem_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !e.traced {
		return out, nil
	}

	after, err := scrapeHandlerTime(setupClient, svc.base)
	if err != nil {
		return nil, err
	}
	if n := after.count - before.count; n > 0 {
		out.layer["server.handler_ms_mean"] = (after.sum - before.sum) / n * 1e3
	}
	var byKind [nKinds][]time.Duration
	var bytesTotal float64
	for i, q := range seq {
		byKind[table[q].kind] = append(byKind[table[q].kind], lat[i])
		bytesTotal += float64(size[i])
	}
	out.layer["server.sweep_p50_ms"] = quantile(sortedMillis(byKind[kindSweep]), 0.5)
	out.layer["server.figure_p50_ms"] = quantile(sortedMillis(byKind[kindFigure]), 0.5)
	out.layer["server.resp_kb_mean"] = bytesTotal / float64(len(seq)) / 1024
	poolLayer(out.layer, statsBefore, st)
	storeLayer(out.layer, storeBefore, storeAfter)
	rt.fill(out.layer, len(seq))

	// The sink keeps the latest request traces; aggregate the spans of
	// the last simulating-route requests of the timed phase.
	spans := newSpanAgg()
	fetched := 0
	for i := len(seq) - 1; i >= 0 && fetched < 32; i-- {
		if table[seq[i]].kind == kindMetrics || traceIDs[i] == "" {
			continue
		}
		if _, err := get(setupClient, svc.base+"/v1/trace/"+traceIDs[i], &buf); err != nil {
			return nil, fmt.Errorf("fetching a request trace: %w", err)
		}
		if err := spans.addChrome(buf.Bytes()); err != nil {
			return nil, err
		}
		fetched++
	}
	spans.fill(out.layer)

	if out.layer["experiments.figure_json_ms"], err = figureJSONMillis(ctx, svc.opts, table); err != nil {
		return nil, err
	}
	return out, nil
}

// segmentMetrics fills the per-operation end-to-end metrics as medians
// over consecutive slices of the request sequence, one per nominal
// second, so a burst of interference from outside the process moves one
// slice, not the result. A slice has thousands of requests, so its p99
// has tens of samples beyond it.
func segmentMetrics(m map[string]float64, segments int, begin, lat []time.Duration, wall time.Duration) {
	var p50, p90, p99, rate []float64
	n := len(lat)
	for k := 0; k < segments; k++ {
		lo, hi := k*n/segments, (k+1)*n/segments
		first, last := begin[lo], time.Duration(0)
		for i := lo; i < hi; i++ {
			first = min(first, begin[i])
			last = max(last, begin[i]+lat[i])
		}
		ms := sortedMillis(lat[lo:hi])
		p50 = append(p50, quantile(ms, 0.50))
		p90 = append(p90, quantile(ms, 0.90))
		p99 = append(p99, quantile(ms, 0.99))
		rate = append(rate, float64(hi-lo)/(last-first).Seconds())
	}
	for _, xs := range [][]float64{p50, p90, p99, rate} {
		sort.Float64s(xs)
	}
	m["op_p50_ms"] = quantile(p50, 0.5)
	m["op_p90_ms"] = quantile(p90, 0.5)
	m["op_p99_ms"] = quantile(p99, 0.5)
	m["ops_per_s"] = quantile(rate, 0.5)
	m["wall_s"] = wall.Seconds()
}

// figureJSONRounds is how many times figureJSONMillis assembles each
// figure.
const figureJSONRounds = 50

// figureJSONMillis times FigureN plus Figure.JSON on the warm pool, the
// in-process core of a /v1/figures request, and checks each body
// against the served one. It returns the mean per figure in ms.
func figureJSONMillis(ctx context.Context, opts experiments.Options, table []warmRequest) (float64, error) {
	refs := map[string][]byte{}
	for _, r := range table {
		if r.kind == kindFigure {
			refs[r.path] = r.ref
		}
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for round := 0; round < figureJSONRounds; round++ {
		for n := 2; n <= 7; n++ {
			fig, err := experiments.FigureN(ctx, opts, n)
			if err != nil {
				return 0, err
			}
			buf.Reset()
			if err := fig.JSON(&buf); err != nil {
				return 0, err
			}
			if !bytes.Equal(buf.Bytes(), refs[fmt.Sprintf("/v1/figures/%d", n)]) {
				return 0, fmt.Errorf("figure %d JSON differs from the served body", n)
			}
		}
	}
	return float64(time.Since(t0)) / 1e6 / (6 * figureJSONRounds), nil
}

// handlerTime is the server's own request-duration histogram, summed
// over the routes the warm mix exercises (scrapes excluded).
type handlerTime struct{ sum, count float64 }

func scrapeHandlerTime(c *http.Client, base string) (handlerTime, error) {
	var buf bytes.Buffer
	if _, err := get(c, base+"/metrics", &buf); err != nil {
		return handlerTime{}, err
	}
	var h handlerTime
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, `route="GET /v1/sweep"`) && !strings.Contains(line, `route="GET /v1/sweep/stream"`) &&
			!strings.Contains(line, `route="GET /v1/figures/{n}"`) {
			continue
		}
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return handlerTime{}, fmt.Errorf("parsing metrics line %q: %w", line, err)
		}
		switch name {
		case "petasim_http_request_seconds_sum":
			h.sum += v
		case "petasim_http_request_seconds_count":
			h.count += v
		}
	}
	if h.count == 0 {
		return handlerTime{}, errors.New("no request-duration samples in /metrics")
	}
	return h, nil
}
