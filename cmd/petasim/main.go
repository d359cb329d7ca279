// Command petasim regenerates the tables and figures of "Scientific
// Application Performance on Candidate PetaScale Platforms" (Oliker et
// al., IPDPS 2007) on the simulated platform models, and sweeps any
// workload × platform × concurrency cross-product beyond them.
//
// Usage:
//
//	petasim [flags] <experiment>
//
// Experiments:
//
//	table1    architectural highlights (STREAM, MPI microbenchmarks)
//	table2    application overview
//	fig1      communication topologies of the registered workloads
//	fig2      GTC weak scaling
//	fig3      ELBM3D strong scaling
//	fig4      Cactus weak scaling
//	fig5      BeamBeam3D strong scaling
//	fig6      PARATEC strong scaling
//	fig7      HyperCLaw weak scaling
//	fig8      cross-application summary
//	figures   figures 2–7 in sequence
//	sweep     generic -app × -machine × -procs cross-product
//	trace     sweep once with tracing on; write Chrome trace-event JSON to -o
//	whatif    sensitivity study: perturb one machine knob at a time
//	gtcopt    §3.1 GTC BG/L optimisation ladder
//	amropt    §8.1 HyperCLaw X1E knapsack/regrid optimisations
//	vnode     §3.1 BG/L virtual-node-mode efficiency
//	machines  list the modelled platforms (built-ins plus -spec customs)
//	workloads list the registered workloads (Table 2 metadata)
//	bench     run the benchmark-trajectory suite; record/gate BENCH_*.json
//	serve     long-running HTTP JSON service over the same engine
//	jobs      client for a server's async job API (see below)
//	all       everything above except sweep, trace, whatif, bench, serve and jobs
//
// Flags:
//
//	-quick        cap concurrencies for a fast smoke run
//	-max N        cap every series at N processors
//	-jobs N       worker goroutines for the experiment point cross-product
//	-cache DIR    persist simulated points; repeated runs skip them
//	-mem-cache N  in-memory LRU over N results in front of -cache (0 disables)
//	-csv DIR      also write each experiment's points as CSV into DIR
//	-json DIR     also write each experiment's points as JSON into DIR
//	-commtopo-p N concurrency for fig1 (default 64)
//	-spec FILE    load a custom machine spec file (repeatable)
//	-app LIST     sweep: comma-separated workloads (default: all registered); whatif: exactly one
//	-machine LIST sweep/whatif: comma-separated platforms (default: the full testbed)
//	-procs LIST   sweep/whatif: comma-separated concurrencies (default: 64..1024; whatif: 64)
//	-o FILE       trace: output file for the Chrome trace-event JSON (default trace.json; - for stdout)
//	-perturb LIST whatif: comma-separated knob=±X% entries (default: every knob ±10%)
//	-steps N      whatif: perturbation grid points per side of each half-range (default 1)
//	-stream       whatif: emit NDJSON point lines as they complete
//	-addr ADDR    serve: listen address (default :8080)
//	-jobs-dir DIR serve: enable the async /v1/jobs API; job WALs persist here
//	-job-workers N  serve: max concurrently executing jobs (default 2)
//	-job-retries N  serve: re-runs per job after transient failure (default 2)
//	-job-quota N  serve: max queued+running jobs per client (default 16; 0 unlimited)
//	-job-rate R   serve: per-client submissions/sec (default 10; 0 unlimited)
//	-job-burst N  serve: submission token-bucket burst (default 20)
//	-benchtime T  bench: per-benchmark budget, duration or Nx count (default 1s)
//	-bench RE     bench: only run suite entries matching RE
//	-against FILE bench: diff this run against a prior BENCH_*.json record
//	-gate         bench: exit nonzero on regression past threshold
//	-pr N         bench: trajectory point label (default: from -json filename)
//
// bench measures the curated suite in-process (the same bodies the root
// bench_test.go benchmarks delegate to, plus simmpi-core
// microbenchmarks), records per-benchmark ns/op, B/op and allocs/op
// plus the headline cold-AllFigures wall time into a schema-versioned
// JSON record (-json FILE), and diffs against a prior record
// (-against, defaulting under -gate to the newest committed
// BENCH_*.json) with noise-aware thresholds. CI runs
// `petasim bench -gate` so a hot-path regression fails the build, and
// every PR appends a BENCH_<pr>.json trajectory point.
//
// Custom machines: each -spec FILE is a JSON machine definition — a full
// spec in the Table 1 on-disk units, or an overlay like
// {"base": "bassi", "name": "bassi-2x", "stream_gbs": 13.6} — validated
// and merged over the built-in testbed for every selector in the run
// (sweep, whatif, machines, serve). Cache keys hash the full spec
// content, never the machine name, so renaming or editing a spec file
// can never collide with stale cached points.
//
// whatif perturbs one Table 1 quantity of each selected machine at a
// time (peak, stream, latency, bandwidth, hop, nodesize), reruns the
// -app workload across the ±X% grid, and prints a tornado-style
// sensitivity ranking per machine plus the Pareto frontier across the
// candidates; -json/-csv write the full study artifact.
//
// Every application is a workload registered in internal/apps; the
// figures, the summary, the topology captures, and the sweep all
// dispatch through that registry, so a seventh workload becomes
// sweepable (and appears in fig1/fig8/table2) just by registering.
//
// Every independent (experiment, machine, concurrency) point is fanned
// out across -jobs workers through internal/runner; point results are
// assembled in deterministic order, so the output is byte-identical for
// any worker count. With -cache, points carry a content key (experiment
// × machine spec × concurrency), and a second run serves them from disk
// without re-simulating; the run summary on stderr reports the split.
// A failed cache write is a one-time warning, never a run failure.
//
// serve -jobs-dir DIR additionally runs the durable async job queue:
// POST /v1/jobs answers 202 immediately and the job executes in the
// background on the same pool; the WAL directory survives restarts, so
// a killed server re-enqueues interrupted jobs on the next start. The
// `petasim jobs` subcommands (submit, list, get, result, watch, cancel)
// are a client for that API — `petasim jobs submit -app gtc -wait`
// submits a sweep and follows its progress to completion.
//
// serve turns the same engine into a service: every /v1/sweep and
// /v1/figures query runs through one shared pool, with the -mem-cache
// LRU in front of -cache and in-flight deduplication, so concurrent
// identical requests simulate each point once and warm queries
// re-simulate nothing. /v1/sweep/stream answers the same selectors as
// NDJSON, one point per line as it completes.
//
// The whole binary is cancellable: Ctrl-C (or SIGTERM) stops a sweep
// promptly — already-simulated points are kept in the caches and the
// stderr summary reports the partial run — and stops serve by draining
// in-flight requests through http.Server.Shutdown before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/whatif"
)

// cliLog is the CLI's stderr voice: structured log/slog underneath (so
// notes can carry request/job ID fields), rendered as the traditional
// human-readable "petasim: ..." lines.
var cliLog = obs.NewLogger(os.Stderr, "petasim", slog.LevelInfo)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "cap concurrencies for a fast smoke run")
	maxProcs := flag.Int("max", 0, "cap every series at this many processors")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines for experiment points")
	cacheDir := flag.String("cache", "", "cache simulated points in this directory")
	memCache := flag.Int("mem-cache", runner.DefaultMemCapacity,
		"in-memory LRU capacity (results) in front of -cache; <=0 disables")
	addr := flag.String("addr", ":8080", "serve: listen address")
	csvDir := flag.String("csv", "", "write experiment CSVs into this directory")
	jsonDir := flag.String("json", "", "write experiment JSON records into this directory")
	commP := flag.Int("commtopo-p", 64, "concurrency for the fig1 topology capture")
	var specFiles multiFlag
	flag.Var(&specFiles, "spec", "custom machine spec file (repeatable)")
	appList := flag.String("app", "", "sweep: comma-separated workload names (whatif requires exactly one)")
	machineList := flag.String("machine", "", "sweep/whatif: comma-separated machine names")
	procsList := flag.String("procs", "", "sweep/whatif: comma-separated processor counts")
	traceOut := flag.String("o", "trace.json", "trace: write Chrome trace-event JSON here (- for stdout)")
	perturb := flag.String("perturb", "", "whatif: comma-separated knob=±X% perturbations (default: every knob ±10%)")
	steps := flag.Int("steps", 1, "whatif: perturbation grid points per side")
	stream := flag.Bool("stream", false, "whatif: emit NDJSON point lines as they complete")
	jobsDir := flag.String("jobs-dir", "", "serve: enable the async /v1/jobs API, persisting job WALs here")
	jobWorkers := flag.Int("job-workers", 2, "serve: max concurrently executing jobs")
	jobRetries := flag.Int("job-retries", 2, "serve: re-runs per job after transient failure")
	jobQuota := flag.Int("job-quota", 16, "serve: max queued+running jobs per client (0 = unlimited)")
	jobRate := flag.Float64("job-rate", 10, "serve: per-client job submissions per second (0 = unlimited)")
	jobBurst := flag.Int("job-burst", 20, "serve: submission token-bucket burst capacity")
	benchtime := flag.String("benchtime", "", "bench: per-benchmark budget, duration or Nx count (default: 1s)")
	benchFilter := flag.String("bench", "", "bench: only run suite entries matching this regexp")
	cpuProfile := flag.String("cpuprofile", "", "bench: write a CPU profile of the measured suite to this file")
	memProfile := flag.String("memprofile", "", "bench: write a post-run heap profile to this file")
	against := flag.String("against", "", "bench: diff the run against this BENCH_*.json record")
	gate := flag.Bool("gate", false, "bench: exit nonzero on regression (default baseline: newest BENCH_*.json)")
	pr := flag.Int("pr", 0, "bench: trajectory point label (default: inferred from the -json filename)")
	flag.Parse()

	// Every experiment is one argument; only `jobs` carries a
	// subcommand (and its own flags) after it.
	if flag.NArg() < 1 || (flag.NArg() > 1 && flag.Arg(0) != "jobs") {
		flag.Usage()
		os.Exit(2)
	}
	pool := &runner.Pool{Workers: *jobs}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			cliLog.Error(err.Error())
			os.Exit(1)
		}
		pool.Cache = cache
	}
	pool.Mem = runner.NewMemCache(*memCache) // 0 disables the tier (nil)
	reg := machfile.NewRegistry()
	for _, path := range specFiles {
		if _, err := reg.LoadFile(path); err != nil {
			cliLog.Error(err.Error())
			os.Exit(1)
		}
	}
	opts := experiments.Options{Quick: *quick, MaxProcs: *maxProcs, Runner: pool, Machines: reg}
	cli := cliConfig{
		csvDir: *csvDir, jsonDir: *jsonDir, commP: *commP, addr: *addr,
		apps:     experiments.SplitList(*appList),
		machines: experiments.SplitList(*machineList),
		perturb:  *perturb, steps: *steps, stream: *stream, traceOut: *traceOut,
		benchtime: *benchtime, benchFilter: *benchFilter,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		against: *against, gate: *gate, pr: *pr,
		jobsDir: *jobsDir, jobWorkers: *jobWorkers, jobRetries: *jobRetries,
		jobQuota: *jobQuota, jobRate: *jobRate, jobBurst: *jobBurst,
		rest: flag.Args()[1:],
		reg:  reg,
	}
	// Ctrl-C (or a supervisor's SIGTERM) cancels the whole run: sweeps
	// stop scheduling promptly and report what they completed; serve
	// drains in-flight requests before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	cli.procs, err = experiments.ParseProcs(*procsList)
	if err == nil {
		err = run(ctx, strings.ToLower(flag.Arg(0)), opts, cli)
	}
	if s := pool.Stats(); s.Points > 0 {
		cliLog.Info(s.String(), "workers", pool.Workers)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// The stats line above already reported the partial run.
			cliLog.Warn("interrupted; partial results only")
		} else {
			cliLog.Error(err.Error())
		}
		os.Exit(1)
	}
}

// cliConfig carries the artifact directories, the sweep/whatif
// selectors, the serve address, and the session's machine registry.
type cliConfig struct {
	csvDir, jsonDir string
	commP           int
	addr            string
	apps, machines  []string
	procs           []int
	perturb         string
	steps           int
	stream          bool
	traceOut        string
	benchtime       string
	benchFilter     string
	cpuProfile      string
	memProfile      string
	against         string
	gate            bool
	pr              int
	jobsDir         string
	jobWorkers      int
	jobRetries      int
	jobQuota        int
	jobRate         float64
	jobBurst        int
	rest            []string // arguments after the `jobs` experiment word
	reg             *machfile.Registry
}

// selectedMachines resolves the -machine selector against the registry
// with the shared selector rule (empty = full merged testbed, repeats
// dropped).
func (cli cliConfig) selectedMachines() ([]machine.Spec, error) {
	return experiments.ResolveMachines(cli.reg, cli.machines)
}

func run(ctx context.Context, cmd string, opts experiments.Options, cli cliConfig) error {
	out := os.Stdout
	// renderFigure is the single render+artifact path every figure-shaped
	// experiment goes through: the two table panels, the Gflop/s chart,
	// and the -csv/-json artifacts.
	renderFigure := func(fig *experiments.Figure) error {
		if err := fig.Render(out); err != nil {
			return err
		}
		if err := fig.RenderChart(out, "gflops"); err != nil {
			return err
		}
		return writeArtifacts(cli, fig.ID, fig.CSV, fig.JSON)
	}
	figure := func(f func(context.Context, experiments.Options) (*experiments.Figure, error)) error {
		fig, err := f(ctx, opts)
		if err != nil {
			return err
		}
		return renderFigure(fig)
	}
	figureSet := func(figs []*experiments.Figure) error {
		for _, fig := range figs {
			if err := renderFigure(fig); err != nil {
				return err
			}
		}
		return nil
	}
	study := func(id string) error {
		study, rows, err := experiments.RunStudyByID(ctx, opts, id)
		if err != nil {
			return err
		}
		experiments.RenderOptResults(out, study.Title, rows)
		return nil
	}

	switch cmd {
	case "table1":
		rows, err := experiments.Table1(ctx, opts)
		if err != nil {
			return err
		}
		experiments.RenderTable1(out, rows)
	case "table2":
		experiments.RenderTable2(out)
	case "fig1", "commtopo":
		results, err := experiments.Fig1Rendered(ctx, opts, cli.commP, 48)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprint(out, r.Output)
		}
		// Topology captures are text artifacts with no scalar metrics, so
		// only the JSON form (which carries the rendered output) is written.
		return writeArtifacts(cli, "Figure 1", nil,
			func(w io.Writer) error { return runner.WriteJSON(w, results) })
	case "fig2":
		return figure(experiments.Fig2GTC)
	case "fig3":
		return figure(experiments.Fig3ELBM3D)
	case "fig4":
		return figure(experiments.Fig4Cactus)
	case "fig5":
		return figure(experiments.Fig5BeamBeam3D)
	case "fig6":
		return figure(experiments.Fig6PARATEC)
	case "fig7":
		return figure(experiments.Fig7HyperCLaw)
	case "figures":
		figs, err := experiments.AllFigures(ctx, opts)
		if err != nil {
			return err
		}
		return figureSet(figs)
	case "sweep":
		figs, err := experiments.Sweep(ctx, opts, cli.apps, cli.machines, cli.procs)
		if err != nil {
			return err
		}
		return figureSet(figs)
	case "trace":
		// One traced sweep: the same selectors as `sweep`, but the run
		// carries a trace through runner and simmpi, written as Chrome
		// trace-event JSON for chrome://tracing or Perfetto. The trace is
		// written even when the sweep fails or is interrupted — a partial
		// timeline is exactly what one wants for diagnosis.
		tr := obs.NewTrace(obs.NewID(), "petasim trace")
		root := tr.Root()
		root.SetAttr("app", strings.Join(cli.apps, ","))
		root.SetAttr("machine", strings.Join(cli.machines, ","))
		figs, err := experiments.Sweep(obs.ContextWithTrace(ctx, tr), opts, cli.apps, cli.machines, cli.procs)
		tr.Finish()
		if werr := writeTraceFile(cli.traceOut, tr); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
		return figureSet(figs)
	case "whatif":
		return runWhatif(ctx, opts, cli, out)
	case "fig8":
		sum, err := experiments.Fig8Summary(ctx, opts)
		if err != nil {
			return err
		}
		sum.Render(out)
		return writeArtifacts(cli, "Figure 8", sum.CSV, sum.JSON)
	case "gtcopt":
		return study("gtcopt")
	case "amropt":
		return study("amropt")
	case "vnode":
		return study("vnode")
	case "apexmap":
		results, err := experiments.ApexMapStudy(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Apex-MAP locality sweep (global accesses per µs, higher is better)")
		for _, r := range results {
			fmt.Fprintln(out, r.Output)
		}
	case "bench":
		// For bench, -json names the output record file (BENCH_<pr>.json),
		// not an artifact directory.
		return runBench(ctx, cli, out)
	case "serve":
		return serve(ctx, opts, cli)
	case "jobs":
		return runJobs(ctx, cli.rest, out)
	case "machines":
		builtin := len(machine.All())
		for i, m := range cli.reg.All() {
			if i < builtin {
				fmt.Fprintln(out, m.String())
			} else {
				fmt.Fprintln(out, m.String()+" [custom]")
			}
		}
	case "workloads":
		for _, w := range apps.Workloads() {
			fmt.Fprintln(out, w.Meta().Row())
		}
	case "all":
		for _, c := range []string{"table1", "table2", "fig1", "figures", "fig8", "gtcopt", "amropt", "vnode", "apexmap"} {
			if err := run(ctx, c, opts, cli); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q (try: table1 table2 fig1..fig8 figures sweep trace whatif serve jobs gtcopt amropt vnode machines workloads all)", cmd)
	}
	return nil
}

// runWhatif plans and runs the sensitivity study: tornado tables (plus
// -csv/-json artifacts) by default, NDJSON point lines with -stream.
func runWhatif(ctx context.Context, opts experiments.Options, cli cliConfig, out io.Writer) error {
	if len(cli.apps) != 1 {
		return fmt.Errorf("whatif needs exactly one -app workload (got %d)", len(cli.apps))
	}
	machines, err := cli.selectedMachines()
	if err != nil {
		return err
	}
	perturbs, err := whatif.ParsePerturbs(cli.perturb)
	if err != nil {
		return err
	}
	plan, err := whatif.NewPlan(cli.apps[0], machines, cli.procs, perturbs, cli.steps)
	if err != nil {
		return err
	}
	if cli.stream {
		return streamWhatif(ctx, plan, opts.Runner, out)
	}
	study, err := plan.Execute(ctx, opts.Runner)
	if err != nil {
		return err
	}
	if err := study.Render(out); err != nil {
		return err
	}
	return writeArtifacts(cli, "WhatIf "+study.App, study.CSV, study.JSON)
}

// whatifStreamLine is one NDJSON line of whatif -stream: a completed
// point with its served-from provenance, or a point's own error.
type whatifStreamLine struct {
	Point  *whatif.Point `json:"point,omitempty"`
	Served string        `json:"served,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// streamWhatif emits the study's points in completion order, one JSON
// line each — the CLI twin of the service's NDJSON endpoints. Failed
// points become error lines and the stream keeps going; the run exits
// nonzero if any point failed.
func streamWhatif(ctx context.Context, plan *whatif.Plan, pool *runner.Pool, out io.Writer) error {
	enc := json.NewEncoder(out)
	failed := 0
	for ev := range pool.Stream(ctx, plan.Jobs()) {
		line := whatifStreamLine{}
		if ev.Err != nil {
			failed++
			line.Error = ev.Err.Error()
		} else {
			pt := plan.Point(ev.Index, ev.Result)
			line.Point = &pt
			line.Served = ev.Served.String()
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("whatif: %d point(s) failed", failed)
	}
	return nil
}

// drainTimeout bounds how long a stopping server waits for in-flight
// requests before giving up on them.
const drainTimeout = 15 * time.Second

// serve runs the HTTP service until ctx is cancelled (SIGINT/SIGTERM),
// then drains: the listener closes immediately, in-flight requests get
// up to drainTimeout to finish, and only then does the process exit —
// no request is killed mid-simulation by a clean shutdown.
//
// With -jobs-dir the async /v1/jobs API is live: a durable queue opens
// on the directory (recovering any jobs a previous process left
// queued or running) and its dispatcher runs alongside the listener on
// the same pool, so async and synchronous requests share one result
// store. Shutdown cancels the dispatcher too — running jobs keep their
// durable "running" state and the next start re-enqueues them.
func serve(ctx context.Context, opts experiments.Options, cli cliConfig) error {
	addr := cli.addr
	handler := server.New(opts)
	queueDone := make(chan struct{})
	close(queueDone) // no queue: nothing to wait for
	if cli.jobsDir != "" {
		q, err := jobs.Open(cli.jobsDir, jobs.Config{
			Executor:           jobs.NewExecutor(opts),
			MaxRunning:         cli.jobWorkers,
			MaxRetries:         cli.jobRetries,
			MaxActivePerClient: cli.jobQuota,
			SubmitRate:         cli.jobRate,
			SubmitBurst:        cli.jobBurst,
			Log:                cliLog,
			// Job traces land in the same sink the server's request
			// middleware publishes to, so GET /v1/trace/{job id} works.
			Sink: obs.DefaultSink,
		})
		if err != nil {
			return err
		}
		handler = server.NewWithQueue(opts, q)
		queueDone = make(chan struct{})
		go func() {
			defer close(queueDone)
			q.Serve(ctx) // returns ctx.Err() on shutdown; jobs stay durable
		}()
		cliLog.Info("async jobs enabled", "dir", cli.jobsDir, "workers", cli.jobWorkers)
	}
	defer func() { <-queueDone }() // no exit with executor goroutines live
	return serveHTTP(ctx, handler, addr)
}

// serveHTTP runs one handler on addr with the drain-on-cancel contract.
func serveHTTP(ctx context.Context, handler http.Handler, addr string) error {
	// Header/idle timeouts so slow or idle clients cannot pin
	// goroutines forever; no write timeout, because a cold figure
	// query legitimately simulates for a while before responding.
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds the whole request read, so a trickled
		// POST body cannot pin a handler goroutine. It does not
		// limit how long a cold query may simulate before the
		// response is written (that would be WriteTimeout).
		ReadTimeout: 30 * time.Second,
		IdleTimeout: 2 * time.Minute,
	}
	cliLog.Info("serving", "addr", addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // bind failure or another listener error; not a shutdown
	case <-ctx.Done():
	}
	cliLog.Info("shutting down, draining in-flight requests", "timeout", drainTimeout)
	//petavet:ignore ctxfirst the parent ctx is already canceled here; the drain deadline needs a fresh context or Shutdown would hard-close immediately
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// Drain deadline hit: close the stragglers' connections hard.
		hs.Close()
		return fmt.Errorf("serve: drain incomplete after %s: %w", drainTimeout, err)
	}
	<-errc // reap the ListenAndServe goroutine (returns ErrServerClosed)
	return nil
}

// writeTraceFile writes a finished trace as Chrome trace-event JSON to
// path ("-" for stdout), logging where it went.
func writeTraceFile(path string, tr *obs.Trace) error {
	if path == "-" {
		return tr.WriteChromeJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := tr.WriteChromeJSON(f); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	cliLog.Info("wrote trace", "file", path, "spans", tr.SpanCount(), "dropped", tr.Dropped())
	return nil
}

// writeArtifacts emits an experiment's structured points in the requested
// formats, named after the experiment ID ("Figure 3" → figure3.csv). A
// nil writer skips that format.
func writeArtifacts(cli cliConfig, id string, csv, json func(io.Writer) error) error {
	name := strings.ToLower(strings.ReplaceAll(id, " ", ""))
	if err := writeFile(cli.csvDir, name+".csv", csv); err != nil {
		return err
	}
	return writeFile(cli.jsonDir, name+".json", json)
}

func writeFile(dir, name string, write func(io.Writer) error) error {
	if dir == "" || write == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
