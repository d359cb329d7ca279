package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/runner"
)

// SplitList parses a comma-separated selector, trimming blanks — the
// -app/-machine syntax shared by the CLI and the HTTP service.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseProcs parses the comma-separated concurrency selector shared by
// the CLI (-procs) and the HTTP service (procs=).
func ParseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		p, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad procs entry %q: %w", part, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// SweepPlan is a validated sweep selection, ready to run. Splitting
// planning from running lets callers (the HTTP service) distinguish
// bad selectors — a caller error — from a simulation failure. The plan
// captures the Options it was validated against, so the selection that
// was checked is exactly the selection that runs.
type SweepPlan struct {
	opts  Options
	specs []*figureSpec
}

// PlanSweep validates a workload × platform × concurrency selection
// against the registry and the option caps. Empty selectors default to
// everything: all registered workloads, the full Table 1 testbed, and
// the 64..1024 doubling series. Every error it returns names something
// wrong with the selectors: an unknown workload or machine, a
// nonpositive concurrency, or a cross-product that leaves a workload
// with no runnable points. Nothing is simulated.
func PlanSweep(opts Options, appNames, machineNames []string, procs []int) (*SweepPlan, error) {
	workloads, err := sweepWorkloads(appNames)
	if err != nil {
		return nil, err
	}
	machines, err := ResolveMachines(opts.Machines, machineNames)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if len(procs) == 0 {
		procs = powersOfTwo(64, 1024)
	}
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("sweep: nonpositive concurrency %d", p)
		}
	}

	specs := make([]*figureSpec, len(workloads))
	for i, w := range workloads {
		series := make([]seriesSpec, len(machines))
		for j, spec := range machines {
			series[j] = seriesSpec{spec: spec, procs: procs}
		}
		specs[i] = &figureSpec{
			id:      "Sweep " + w.Name(),
			title:   fmt.Sprintf("%s sweep", w.Name()),
			scaling: w.Meta().Scaling,
			w:       w,
			series:  series,
		}
		if !specs[i].runnable(opts) {
			return nil, fmt.Errorf("sweep: no runnable points for %s sweep (check -procs against the machines' sizes)", w.Name())
		}
	}
	return &SweepPlan{opts: opts, specs: specs}, nil
}

// Execute simulates the planned cross-product under the plan's options.
// One Figure per workload comes back, machines as series, assembled in
// deterministic job order through the options' pool exactly like the
// paper figures, so the output is byte-identical for any worker count
// and repeat runs are cache-served. Errors are simulation failures (or
// ctx's cancellation), not selector problems; cancelling ctx stops
// scheduling promptly and returns the error alongside whatever partial
// state the pool accumulated in its caches.
func (p *SweepPlan) Execute(ctx context.Context) ([]*Figure, error) {
	return buildFigureSpecs(ctx, p.opts, p.specs)
}

// Jobs expands the planned cross-product into runner jobs in the
// order Execute assembles them: workload-major, then machine, then
// concurrency. Streaming consumers (the NDJSON endpoint, job progress)
// run them through Pool.Stream and take the point count as their
// length.
func (p *SweepPlan) Jobs() []runner.Job {
	var jobs []runner.Job
	for _, fs := range p.specs {
		jobs = append(jobs, fs.jobs(p.opts)...)
	}
	return jobs
}

// Sweep plans and runs a sweep in one call — the CLI entry point.
func Sweep(ctx context.Context, opts Options, appNames, machineNames []string, procs []int) ([]*Figure, error) {
	plan, err := PlanSweep(opts, appNames, machineNames, procs)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx)
}

// sweepWorkloads resolves the -app selector, defaulting to the whole
// registry. Repeats are dropped, keeping first-mention order.
func sweepWorkloads(names []string) ([]apps.Workload, error) {
	if len(names) == 0 {
		return apps.Workloads(), nil
	}
	seen := map[string]bool{}
	var out []apps.Workload
	for _, name := range names {
		w, err := apps.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		if !seen[w.Name()] {
			seen[w.Name()] = true
			out = append(out, w)
		}
	}
	return out, nil
}

// ResolveMachines resolves a machine selector through the registry (nil
// is the built-ins only): an empty selector means its full testbed (the
// Table 1 built-ins plus any registered custom platforms); otherwise
// each name resolves with the forgiving lookup and repeats are dropped,
// keeping first-mention order. The one selector rule shared by sweep,
// whatif, the CLI, and the HTTP service.
func ResolveMachines(reg *machfile.Registry, names []string) ([]machine.Spec, error) {
	if len(names) == 0 {
		return reg.All(), nil
	}
	seen := map[string]bool{}
	var out []machine.Spec
	for _, name := range names {
		spec, err := reg.Find(name)
		if err != nil {
			return nil, err
		}
		if !seen[spec.Name] {
			seen[spec.Name] = true
			out = append(out, spec)
		}
	}
	return out, nil
}
