package jobs

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/machfile"
	"repro/internal/runner"
	"repro/internal/whatif"
)

// EngineExecutor is the real Executor: it expands job specs into plans
// and runs them through the shared simulation pool, so every completed
// point lands in the pool's result store under its content key — which
// is why WriteResult can regenerate a finished job's artifact
// byte-identically without re-simulating anything.
type EngineExecutor struct {
	opts experiments.Options
}

// NewExecutor binds the queue to the experiments engine. opts.Runner is
// the shared pool (nil gets a serial, uncached one — fine for tests,
// not for traffic); opts.Machines the machine namespace (nil gets a
// fresh registry over the built-ins).
func NewExecutor(opts experiments.Options) *EngineExecutor {
	if opts.Runner == nil {
		opts.Runner = &runner.Pool{}
	}
	if opts.Machines == nil {
		opts.Machines = machfile.NewRegistry()
	}
	return &EngineExecutor{opts: opts}
}

// Plan is a spec expanded into the points it dispatches and the
// artifact their results assemble into. Every front end runs the same
// plan: the synchronous routes run Jobs on a request's pool view and
// Write the body, the sweep stream streams Jobs, a job attempt streams
// them with progress, and a done job's result re-runs them on the
// warm store and Writes.
type Plan struct {
	// Jobs are the spec's points in artifact order.
	Jobs []runner.Job
	// Write emits the artifact from the results of Jobs, in job order.
	Write func(w io.Writer, results []runner.Result) error
}

// Plan is the one place a spec's kind is interpreted: it validates the
// selectors and expands them into the plan. Sweeps and figures 2–8
// write their point records as-is; a whatif grid writes its reduced
// study.
func (e *EngineExecutor) Plan(spec Spec) (Plan, error) {
	switch spec.Kind {
	case KindSweep:
		plan, err := experiments.PlanSweep(e.opts, spec.Apps, spec.Machines, spec.Procs)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Jobs: plan.Jobs(), Write: runner.WriteJSON}, nil
	case KindFigure:
		jobs, err := experiments.FigureJobs(e.opts, spec.Figure)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Jobs: jobs, Write: runner.WriteJSON}, nil
	case KindWhatIf:
		if len(spec.Apps) != 1 {
			return Plan{}, fmt.Errorf("whatif needs exactly one app= workload (got %d)", len(spec.Apps))
		}
		machines, err := experiments.ResolveMachines(e.opts.Machines, spec.Machines)
		if err != nil {
			return Plan{}, err
		}
		perturbs, err := whatif.ParsePerturbs(spec.Perturb)
		if err != nil {
			return Plan{}, err
		}
		plan, err := whatif.NewPlan(spec.Apps[0], machines, spec.Procs, perturbs, spec.Steps)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Jobs: plan.Jobs(), Write: func(w io.Writer, results []runner.Result) error {
			return plan.Reduce(results).JSON(w)
		}}, nil
	default:
		return Plan{}, fmt.Errorf("unknown job kind %q (want %s, %s, or %s)", spec.Kind, KindSweep, KindFigure, KindWhatIf)
	}
}

// Validate plans the spec and discards the plan: every selector error
// surfaces at submission time, before the job ever queues.
func (e *EngineExecutor) Validate(spec Spec) error {
	_, err := e.Plan(spec)
	return err
}

// Run streams the spec's plan on its own view of the shared pool,
// reporting Progress snapshots derived from the view's served-from
// tally once the plan is expanded and after each point. A failed point
// does not stop the rest of the batch; the attempt fails afterwards so
// the queue's retry policy applies.
func (e *EngineExecutor) Run(ctx context.Context, spec Spec, report func(Progress)) error {
	plan, err := e.Plan(spec)
	if err != nil {
		return err
	}
	return drain(ctx, e.opts.Runner.View(), plan.Jobs, report)
}

// drain streams jobs on view, reporting the view's progress up front
// and after each point, then folds the batch's tail into the attempt's
// error: cancellation wins (it describes the caller), then any failed
// points.
func drain(ctx context.Context, view *runner.Pool, jobs []runner.Job, report func(Progress)) error {
	total := len(jobs)
	events := view.Stream(ctx, jobs)
	report(progressOf(total, view.Stats()))
	var firstErr error
	for ev := range events {
		report(progressOf(total, view.Stats()))
		if ev.Err != nil && firstErr == nil {
			firstErr = ev.Err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d points failed: %w", progressOf(total, view.Stats()).Failed, total, firstErr)
	}
	return nil
}

// progressOf derives a job's Progress from its pool view's tally: every
// dispatched point is done, and the ones no served-from counter claims
// failed.
func progressOf(total int, st runner.Stats) Progress {
	served := st.Simulated + st.MemHits + st.Hits + st.Deduped
	return Progress{
		Total: total, Done: int(st.Points), Failed: int(st.Points - served),
		Simulated: int(st.Simulated), MemHits: int(st.MemHits),
		DiskHits: int(st.Hits), Deduped: int(st.Deduped),
	}
}

// WriteResult re-runs the spec's plan on the shared pool and writes its
// artifact — byte-identical to the synchronous endpoint's body. For a
// job that just completed, every point is already in the result store,
// so this serves without re-simulation.
func (e *EngineExecutor) WriteResult(ctx context.Context, w io.Writer, spec Spec) error {
	plan, err := e.Plan(spec)
	if err != nil {
		return err
	}
	results, err := e.opts.Runner.Run(ctx, plan.Jobs)
	if err != nil {
		return err
	}
	return plan.Write(w, results)
}
