// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads, each from a single process, and times the calls it
// makes into the program's public entry points from outside:
//
//	paper_cold       one cold in-process regeneration of the whole paper,
//	                 the output of `petasim -quick -max 64 all`
//	serve_warm       a warmed `petasim serve` (memory LRU over disk) under
//	                 a seeded, fixed-length closed-loop request mix
//	serve_cold_jobs  the same service with the durable job queue: every
//	                 sweep point up to 128 processors submitted as an async
//	                 job, followed to completion, and its result read
//
// Usage (from the repository root, which holds BENCHMARK.json):
//
//	bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
//
// --seed picks the generated inputs: serve_warm's queries and request
// sequence, and the order of serve_cold_jobs' specs. --seconds sets the
// length of serve_warm's request sequence (6000 requests per second of
// nominal traffic); the cold workloads run fixed work, one regeneration
// and 216 jobs.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics BENCHMARK.json declares; with --trace 1 it
// carries the per-layer metrics instead, measured in a separate traced
// run of the same inputs. A per-layer metric whose layer the workload
// does not drive reads 0. Every run checks the program's outputs against
// references and exits nonzero when a check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// started approximates process start for set-up timing: package
// initialisation of main runs after every imported package's.
var started = time.Now()

// env is what every workload receives.
type env struct {
	seed    int64
	seconds int
	traced  bool
	// twin marks the untraced child a traced run spawns to measure
	// tracing overhead: it runs the traced run's call sequence untraced.
	twin    bool
	workers int
	tmp     string // private scratch directory, removed on exit
}

// outcome is one workload run's result. e2e and layer are keyed by the
// metric names BENCHMARK.json declares.
type outcome struct {
	attempted, failed int
	// problems are failed checks beyond per-operation failures, e.g. a
	// warm phase that simulated.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, env) (*outcome, error){
	"paper_cold":      runPaperCold,
	"serve_warm":      runServeWarm,
	"serve_cold_jobs": runServeColdJobs,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: paper_cold, serve_warm or serve_cold_jobs")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase of serve_warm, in seconds of nominal traffic")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	twin := flag.Bool("twin", false, "internal: untraced twin of a traced run")
	probe := flag.String("probe", "", "internal: set up the named workload, print ready and exit")
	flag.Parse()

	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := env{seed: *seed, seconds: *seconds, traced: *trace == 1, twin: *twin, workers: workers, tmp: tmp}

	if *probe != "" {
		if err := runProbe(*probe, e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
			return 1
		}
		return 0
	}

	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper_cold, serve_warm, serve_cold_jobs), --seconds >= 1 and --trace 0|1 (got %q, %d, %d)\n",
			*workload, *seconds, *trace)
		return 2
	}
	var untracedWall float64
	if e.traced && hasTwin[*workload] {
		if untracedWall, err = untracedTwin(ctx, *workload, e); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
	}
	out, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}
	ok = out.failed == 0 && len(out.problems) == 0
	if e.twin {
		// The twin reports only its timed phase's wall time.
		if ok {
			fmt.Println(strconv.FormatFloat(out.e2e["wall_s"], 'g', -1, 64))
			return 0
		}
		return 1
	}
	if e.traced {
		out.layer["obs.trace_overhead_frac"] = 0
		if untracedWall > 0 {
			out.layer["obs.trace_overhead_frac"] = out.e2e["wall_s"]/untracedWall - 1
		}
	}
	line, err := decl.result(out, e.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// hasTwin names the workloads whose traced run measures its tracing
// overhead against an untraced twin. serve_warm has none: the server
// traces every simulating request and cannot be told not to, so its
// twin would differ from the traced run only by the benchmark's own
// post-phase work, and obs.trace_overhead_frac reads 0 there.
var hasTwin = map[string]bool{"paper_cold": true, "serve_cold_jobs": true}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the metric catalogue BENCHMARK.json fixes; the benchmark
// reads it so names and units have one source.
type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric catalogue: %w", err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the outcome as the final JSON line. End-to-end metrics
// must all be measured; a per-layer metric the workload does not drive
// reads 0. A measured name the catalogue lacks is a benchmark bug.
func (d *declared) result(o *outcome, traced bool) ([]byte, error) {
	decls, vals := d.EndToEnd, o.e2e
	if traced {
		decls, vals = d.PerLayer, o.layer
	}
	known := make(map[string]bool, len(decls))
	metrics := make(map[string]metricValue, len(decls))
	for _, m := range decls {
		known[m.Name] = true
		v, ok := vals[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	return json.Marshal(resultLine{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
}

// quantile returns the q-quantile of ascending xs by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// latencyMetrics fills the per-operation end-to-end metrics.
func latencyMetrics(m map[string]float64, lat []time.Duration, wall time.Duration) {
	ms := sortedMillis(lat)
	m["op_p50_ms"] = quantile(ms, 0.50)
	m["op_p90_ms"] = quantile(ms, 0.90)
	m["op_p99_ms"] = quantile(ms, 0.99)
	m["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	m["wall_s"] = wall.Seconds()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runtimeDelta is the Go runtime's allocation and GC work between two
// snapshots.
type runtimeDelta struct{ before, after runtime.MemStats }

func (r *runtimeDelta) start() { runtime.ReadMemStats(&r.before) }
func (r *runtimeDelta) stop()  { runtime.ReadMemStats(&r.after) }

// fill records the runtime layer metrics; ops > 0 adds per-operation
// figures.
func (r *runtimeDelta) fill(m map[string]float64, ops int) {
	alloc := float64(r.after.TotalAlloc - r.before.TotalAlloc)
	gcs := float64(r.after.NumGC - r.before.NumGC)
	pause := float64(r.after.PauseTotalNs - r.before.PauseTotalNs)
	m["runtime.alloc_mb"] = alloc / (1 << 20)
	m["runtime.gc_cycles"] = gcs
	m["runtime.gc_pause_ms"] = pause / 1e6
	if ops > 0 {
		m["runtime.alloc_kb_per_op"] = alloc / 1024 / float64(ops)
		m["runtime.gc_pause_us_per_op"] = pause / 1e3 / float64(ops)
	}
}

// setupProbes is how many fresh processes measure a cold workload's
// set-up; the median is reported.
const setupProbes = 7

// probeSetup measures a cold workload's set-up from process start: it
// launches this binary in probe mode setupProbes times, timing each
// from launch until the child reports ready, and returns the median.
func probeSetup(ctx context.Context, workload string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "--probe", workload)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("starting set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe printed %q (%v)", line, rerr)
		}
		times = append(times, d.Seconds())
	}
	sort.Float64s(times)
	return quantile(times, 0.5), nil
}

// runProbe performs one workload's set-up, reports ready, and tears it
// down again.
func runProbe(workload string, e env) error {
	var teardown func()
	switch workload {
	case "paper_cold":
		newPaperOptions(e.workers)
		teardown = func() {}
	case "serve_cold_jobs":
		svc, _, err := setUpColdJobs(e, obs.DefaultSink)
		if err != nil {
			return err
		}
		teardown = svc.close
	default:
		return fmt.Errorf("no set-up probe for %q", workload)
	}
	if _, err := os.Stdout.WriteString("ready\n"); err != nil {
		return err
	}
	teardown()
	return nil
}

// untracedTwin runs the untraced twin of a traced run in a fresh process
// with the same inputs, before the traced run, and returns its timed
// phase's wall time; the ratio of the two is the tracing overhead. The
// twin makes the traced run's calls without a trace: paper_cold's
// experiment calls, and serve_cold_jobs' jobs, which publish no trace.
func untracedTwin(ctx context.Context, workload string, e env) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatInt(e.seed, 10),
		"--seconds", strconv.Itoa(e.seconds), "--trace", "0", "--twin")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("untraced twin run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	wall, err := strconv.ParseFloat(string(lines[len(lines)-1]), 64)
	if err != nil || wall <= 0 {
		return 0, fmt.Errorf("untraced twin reported no wall time: %q", lines[len(lines)-1])
	}
	return wall, nil
}
