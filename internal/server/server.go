// Package server exposes the experiment engine as a long-running HTTP
// JSON service — simulation as a service. Every simulating endpoint
// parses its selectors into a jobs.Spec and runs the plan the async
// jobs run (jobs.EngineExecutor.Plan), and every request runs through
// a view of one shared runner.Pool, so the service's two-tier result
// store (in-memory LRU over the on-disk cache) and in-flight
// deduplication make repeated and concurrent queries cheap: M identical
// requests simulate each point exactly once, and a warm query never
// re-simulates at all.
//
// Endpoints (all responses application/json):
//
//	GET  /v1/workloads        registered workloads (Table 2 metadata)
//	GET  /v1/machines         the modelled platforms (Table 1 form)
//	POST /v1/machines         register a custom platform for this server's lifetime
//	GET  /v1/sweep            workload × machine × procs cross-product
//	POST /v1/sweep            same, selectors in query or form body
//	GET  /v1/whatif           sensitivity study: knob perturbation grid → tornado + frontier
//	GET  /v1/figures/{n}      paper figure n ∈ 2..8 (8 is the summary)
//	POST /v1/jobs             submit an async job (sweep/figure/whatif) → 202
//	GET  /v1/jobs             list jobs (state=, kind=, client= filters)
//	GET  /v1/jobs/{id}        job record: state + progress
//	GET  /v1/jobs/{id}/result the completed artifact, byte-identical to the sync endpoint
//	GET  /v1/jobs/{id}/stream NDJSON job snapshots until terminal
//	DELETE /v1/jobs/{id}      cancel (queued: immediate; running: context-cancelled)
//	GET  /v1/stats            lifetime pool statistics, store tiers, job queue
//	GET  /healthz             liveness probe
//
// The jobs endpoints are live when the server is built with a queue
// (petasim serve -jobs-dir); see internal/jobs for the durability and
// scheduling contract. Submissions are subject to per-client quotas and
// a token-bucket rate limit — a rejected submission is 429 with a
// Retry-After header.
//
// Sweep selectors are the CLI's: app, machine (comma-separated,
// forgiving lookup) and procs (comma-separated counts); empty selectors
// default to everything. Figure bodies are byte-identical to the CLI's
// figureN.json artifacts, and a single-workload sweep body is
// byte-identical to its sweep<app>.json artifact; a multi-workload
// sweep concatenates the per-workload point records into one array
// (the CLI writes one file per workload). Each sweep/figure response
// carries X-Petasim-* headers reporting what the request cost: points
// dispatched, and how many were simulated, served from the memory or
// disk tier, or deduplicated against another in-flight request.
//
// POST /v1/machines takes a machfile spec body (application/json): a
// full definition in the Table 1 on-disk units, or a "base"-keyed
// overlay on a built-in or previously registered platform. The spec is
// validated and registered ephemerally — it lives in the server's
// machfile registry until the process exits, and every machine selector
// (sweeps, streams, whatif) resolves it like a built-in. A name
// collision is 409; an invalid spec is 400; success is 201 with the
// canonical spec body. Cached points are safe across name reuse between
// server lifetimes because runner content keys hash the full spec
// value, never the name.
//
// GET /v1/whatif runs an internal/whatif sensitivity study: selectors
// app (one workload, required), machine (default: the full testbed
// including customs), procs (default 64), perturb
// ("stream=±20%,latency=±50%"; default every knob at ±10%) and steps
// (grid points per side, default 1). The body is the whatif Study JSON:
// every grid point in deterministic job order, per-machine tornado
// rankings, and the cost-free Pareto frontier over the baselines.
//
// Every simulating handler runs under the request's context: a client
// that disconnects (or a proxy that times the request out) cancels the
// simulation instead of leaving it running to completion for nobody.
// An optional timeout= query parameter (a Go duration: "30s", "2m")
// puts a per-request deadline on top; a request that exceeds it gets
// 504 with the JSON error envelope.
//
// GET /v1/sweep/stream is the incremental form of /v1/sweep: an NDJSON
// (application/x-ndjson) response with one point record per line, in
// completion order, flushed as each point finishes, followed by one
// trailing stats record — so a consumer watches a long sweep fill in
// instead of staring at an open connection. See sweepStreamLine for the
// line shape.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Server is the HTTP front end over one shared simulation pool. It
// implements http.Handler.
type Server struct {
	exec     *jobs.EngineExecutor // plans every request kind
	pool     *runner.Pool
	machines *machfile.Registry
	queue    *jobs.Queue // nil when async jobs are not enabled
	mux      *http.ServeMux
	reg      *obs.Registry
	sink     *obs.Sink
	metrics  *httpMetrics
}

// New builds a server around opts. opts.Runner is the shared backend
// pool — its Workers, memory tier, and disk cache serve every request;
// a nil Runner gets a serial, uncached pool (fine for tests, not for
// traffic). opts.Machines, if it is a machfile.Registry (the CLI
// preloads -spec files into one), becomes the server's machine
// namespace — POST /v1/machines registers into it; anything else
// (including nil) is replaced by a fresh registry so registration
// always works.
func New(opts experiments.Options) *Server {
	return NewWithQueue(opts, nil)
}

// NewWithQueue is New plus an async job queue behind the /v1/jobs
// endpoints. The caller owns the queue's dispatch loop (run
// q.Serve(ctx) alongside the HTTP server, on the same pool as opts so
// async and synchronous requests share one result store). A nil queue
// is New: the jobs routes answer 503.
func NewWithQueue(opts experiments.Options, q *jobs.Queue) *Server {
	if opts.Runner == nil {
		opts.Runner = &runner.Pool{}
	}
	reg, ok := opts.Machines.(*machfile.Registry)
	if !ok || reg == nil {
		reg = machfile.NewRegistry()
		opts.Machines = reg
	}
	s := &Server{exec: jobs.NewExecutor(opts), pool: opts.Runner, machines: reg, queue: q}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("POST /v1/machines", s.handleMachinesPost)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/sweep/stream", s.handleSweepStream)
	mux.HandleFunc("GET /v1/whatif", s.handleWhatif)
	mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	mux.HandleFunc("POST /v1/jobs", s.handleJobsPost)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobsGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobsResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobsStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobsDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	s.mux = mux
	s.initObs()
	mux.Handle("GET /metrics", s.reg.Handler())
	return s
}

// ServeHTTP is the observability middleware around the mux: every
// request gets an ID echoed as X-Petasim-Trace, the simulating routes
// get a trace carried through the handler's context (published to the
// sink on completion, retrievable at /v1/trace/{id}), and the request
// is recorded into the metrics registry by route and status class.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := s.routeLabel(r)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	id := obs.NewID()
	w.Header().Set("X-Petasim-Trace", id)
	var tr *obs.Trace
	if !untracedRoute(route) {
		tr = obs.NewTrace(id, route)
		tr.Root().SetAttr("path", r.URL.Path)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
	}
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	code := sw.code
	if code == 0 {
		code = http.StatusOK // handler wrote nothing: net/http sends 200
	}
	if tr != nil {
		tr.Root().SetInt("status", int64(code))
		s.sink.Publish(tr)
	}
	s.metrics.observe(route, code, time.Since(start))
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// requestContext derives the simulation context for one request: the
// request's own context (cancelled when the client disconnects), capped
// by the optional timeout= query parameter. A malformed or nonpositive
// timeout is a selector error.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("bad timeout %q: %w", raw, err)
	}
	if d <= 0 {
		return nil, nil, fmt.Errorf("bad timeout %q: must be positive", raw)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// writeRunError maps a simulation failure to a status: a deadline blown
// by the request's timeout= is the caller's 504; a disconnect-cancelled
// request gets a best-effort 499 (the client is gone and will never read
// it, but the access log should say what happened); everything else is
// an internal simulation failure.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("simulation exceeded the request deadline: %w", err))
	case errors.Is(err, context.Canceled):
		writeError(w, 499, fmt.Errorf("request cancelled: %w", err)) // nginx's client-closed-request
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// writeStatsHeaders reports a request's serving split.
func writeStatsHeaders(w http.ResponseWriter, st runner.Stats) {
	h := w.Header()
	h.Set("X-Petasim-Points", strconv.FormatInt(st.Points, 10))
	h.Set("X-Petasim-Simulated", strconv.FormatInt(st.Simulated, 10))
	h.Set("X-Petasim-Mem-Hits", strconv.FormatInt(st.MemHits, 10))
	h.Set("X-Petasim-Disk-Hits", strconv.FormatInt(st.Hits, 10))
	h.Set("X-Petasim-Deduped", strconv.FormatInt(st.Deduped, 10))
}

// workloadInfo is one row of /v1/workloads: the Table 2 metadata of a
// registered workload.
type workloadInfo struct {
	Name       string `json:"name"`
	Lines      int    `json:"lines"`
	Discipline string `json:"discipline"`
	Methods    string `json:"methods"`
	Structure  string `json:"structure"`
	Scaling    string `json:"scaling"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadInfo
	for _, wl := range apps.Workloads() {
		m := wl.Meta()
		out = append(out, workloadInfo{
			Name: m.Name, Lines: m.Lines, Discipline: m.Discipline,
			Methods: m.Methods, Structure: m.Structure, Scaling: m.Scaling,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	machine.SpecsToJSON(w, s.machines.All())
}

// maxSpecBody bounds a POSTed machine definition; real spec files are a
// few hundred bytes.
const maxSpecBody = 1 << 20

func (s *Server) handleMachinesPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading spec body: %w", err))
		return
	}
	spec, err := s.machines.Load(body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, machfile.ErrDuplicate) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	machine.ToJSON(w, spec)
}

// serveSpec is every synchronous simulating route after its selectors
// are parsed: plan the spec (a bad selector is a 400 before anything
// simulates), run its jobs on a per-request view of the shared pool
// under the request's context, report what the request cost, and
// write the artifact.
func (s *Server) serveSpec(w http.ResponseWriter, r *http.Request, spec jobs.Spec) {
	plan, err := s.exec.Plan(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	view := s.pool.View()
	results, err := view.Run(ctx, plan.Jobs)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeStatsHeaders(w, view.Stats())
	w.Header().Set("Content-Type", "application/json")
	plan.Write(w, results)
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	procs, err := experiments.ParseProcs(q.Get("procs"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	steps := 0
	if raw := q.Get("steps"); raw != "" {
		if steps, err = strconv.Atoi(raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad steps %q: %w", raw, err))
			return
		}
	}
	s.serveSpec(w, r, jobs.Spec{
		Kind:     jobs.KindWhatIf,
		Apps:     experiments.SplitList(q.Get("app")),
		Machines: experiments.SplitList(q.Get("machine")),
		Procs:    procs,
		Perturb:  q.Get("perturb"),
		Steps:    steps,
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// A selector that fails to parse must 400, never silently drop to
	// the empty selector: empty means the full everything-sweep, so a
	// typo'd request would otherwise buy minutes of simulation. That
	// rules out r.FormValue (it swallows parse errors): reject bodies
	// the form parser does not understand, then parse explicitly.
	if r.Method == http.MethodPost {
		ct := r.Header.Get("Content-Type")
		switch {
		case ct == "":
			// ParseForm treats a missing Content-Type as octet-stream
			// and ignores the body without error, which would drop the
			// selectors. ContentLength 0 means no body at all (query
			// selectors only); -1 means an unknown-length body.
			if r.ContentLength != 0 {
				writeError(w, http.StatusUnsupportedMediaType,
					fmt.Errorf("POST body without a content type: send application/x-www-form-urlencoded or use the query string"))
				return
			}
		default:
			mt, _, err := mime.ParseMediaType(ct)
			if err != nil || mt != "application/x-www-form-urlencoded" {
				writeError(w, http.StatusUnsupportedMediaType,
					fmt.Errorf("unsupported content type %q: POST selectors as application/x-www-form-urlencoded or in the query string", ct))
				return
			}
		}
	}
	if spec, ok := sweepSpec(w, r); ok {
		s.serveSpec(w, r, spec)
	}
}

// sweepSpec parses the request's sweep selectors into a job spec. On
// failure it has already written the error response and returns
// ok=false.
func sweepSpec(w http.ResponseWriter, r *http.Request) (jobs.Spec, bool) {
	if err := r.ParseForm(); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed selectors: %w", err))
		return jobs.Spec{}, false
	}
	procs, err := experiments.ParseProcs(r.Form.Get("procs"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return jobs.Spec{}, false
	}
	return jobs.Spec{
		Kind:     jobs.KindSweep,
		Apps:     experiments.SplitList(r.Form.Get("app")),
		Machines: experiments.SplitList(r.Form.Get("machine")),
		Procs:    procs,
	}, true
}

// sweepStreamLine is one NDJSON line of /v1/sweep/stream. Point lines
// carry the point record with its served-from provenance (or the
// point's own error); the final line carries the request's stats
// instead — a consumer distinguishes them by which field is set.
type sweepStreamLine struct {
	Point  *runner.Result `json:"point,omitempty"`
	Served string         `json:"served,omitempty"`
	Error  string         `json:"error,omitempty"`
	Stats  *runner.Stats  `json:"stats,omitempty"`
}

func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	spec, ok := sweepSpec(w, r)
	if !ok {
		return
	}
	plan, err := s.exec.Plan(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Petasim-Planned-Points", strconv.Itoa(len(plan.Jobs)))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // Encode appends the newline NDJSON needs
	view := s.pool.View()
	for ev := range view.Stream(ctx, plan.Jobs) {
		line := sweepStreamLine{}
		if ev.Err != nil {
			line.Error = ev.Err.Error()
		} else {
			res := ev.Result
			line.Point = &res
			line.Served = ev.Served.String()
		}
		if err := enc.Encode(line); err != nil {
			// The client is gone; cancel the plan's remaining points
			// rather than simulating for nobody.
			cancel()
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := ctx.Err(); err != nil {
		// A blown timeout= deadline is worth reporting: the client is
		// still connected, so the stream's last line says why it was cut
		// short (the batch endpoint's 504 equivalent). A disconnect gets
		// nothing — there is nobody left to read it.
		if errors.Is(err, context.DeadlineExceeded) {
			enc.Encode(sweepStreamLine{Error: fmt.Sprintf("stream cut short: %v", err)})
		}
		return
	}
	st := view.Stats()
	enc.Encode(sweepStreamLine{Stats: &st})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 2 || n > 8 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no figure %q (the service regenerates figures 2-8)", r.PathValue("n")))
		return
	}
	s.serveSpec(w, r, jobs.Spec{Kind: jobs.KindFigure, Figure: n})
}

// memInfo reports the memory tier's fill level in /v1/stats.
type memInfo struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// statsSchemaVersion versions the /v1/stats body shape. Bump on any
// breaking change to the response's sections.
// v1: the four-section form — pool (stats/workers/mem_cache/
// disk_cache_dir), store tiers, job queue, obs — plus this field.
const statsSchemaVersion = 1

// obsInfo is the obs section of /v1/stats: the trace sink's health.
type obsInfo struct {
	// TracesRetained is how many completed traces /v1/trace/{id} can
	// currently serve; TracesPublished counts lifetime publishes
	// (requests plus jobs), including those since evicted.
	TracesRetained  int   `json:"traces_retained"`
	TracesPublished int64 `json:"traces_published"`
}

// statsResponse is the body of /v1/stats, in four sections: the pool
// (Stats/Workers/Mem/DiskDir), the result-store tree Store (per tier:
// gets/hits/puts/backfills/fill), the job queue Jobs
// (by-state counts and lifetime rejection/retry counters), and Obs (the
// trace sink). Schema versions the shape.
type statsResponse struct {
	Schema  int                `json:"schema"`
	Stats   runner.Stats       `json:"stats"`
	Workers int                `json:"workers"`
	Mem     *memInfo           `json:"mem_cache,omitempty"`
	DiskDir string             `json:"disk_cache_dir,omitempty"`
	Store   *runner.StoreStats `json:"store,omitempty"`
	Jobs    *jobs.QueueStats   `json:"jobs,omitempty"`
	Obs     *obsInfo           `json:"obs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Schema: statsSchemaVersion, Stats: s.pool.Stats(), Workers: s.pool.Workers}
	if s.pool.Mem != nil {
		resp.Mem = &memInfo{Len: s.pool.Mem.Len(), Cap: s.pool.Mem.Cap()}
	}
	if s.pool.Cache != nil {
		resp.DiskDir = s.pool.Cache.Dir()
	}
	if ss, ok := s.pool.StoreStats(); ok {
		resp.Store = &ss
	}
	if s.queue != nil {
		qs := s.queue.Stats()
		resp.Jobs = &qs
	}
	retained, published := s.sink.Stats()
	resp.Obs = &obsInfo{TracesRetained: retained, TracesPublished: published}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
