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

// EngineExecutor is the real Executor: it expands job specs into
// experiment plans and runs them through the shared simulation pool,
// so every completed point lands in the pool's result store under its
// content key — which is why WriteResult can regenerate a finished
// job's artifact byte-identically without re-simulating anything.
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

// Validate expands the spec into a plan and discards it: every selector
// error surfaces at submission time, before the job ever queues.
func (e *EngineExecutor) Validate(spec Spec) error {
	switch spec.Kind {
	case KindSweep:
		_, err := experiments.PlanSweep(e.opts, spec.Apps, spec.Machines, spec.Procs)
		return err
	case KindFigure:
		if spec.Figure < 2 || spec.Figure > 8 {
			return fmt.Errorf("no figure %d (the engine regenerates figures 2-8)", spec.Figure)
		}
		return nil
	case KindWhatIf:
		_, err := e.whatifPlan(spec)
		return err
	default:
		return fmt.Errorf("unknown job kind %q (want %s, %s, or %s)", spec.Kind, KindSweep, KindFigure, KindWhatIf)
	}
}

// whatifPlan expands a whatif spec with the synchronous endpoint's
// exact selector rules.
func (e *EngineExecutor) whatifPlan(spec Spec) (*whatif.Plan, error) {
	if len(spec.Apps) != 1 {
		return nil, fmt.Errorf("whatif needs exactly one app (got %d)", len(spec.Apps))
	}
	machines, err := experiments.ResolveMachines(e.opts.Machines, spec.Machines)
	if err != nil {
		return nil, err
	}
	perturbs, err := whatif.ParsePerturbs(spec.Perturb)
	if err != nil {
		return nil, err
	}
	return whatif.NewPlan(spec.Apps[0], machines, spec.Procs, perturbs, spec.Steps)
}

// Run executes the spec on its own view of the shared pool, whatever
// its kind, and reports Progress snapshots derived from the view's
// served-from tally: once the plan is expanded, after each streamed
// point (sweeps and whatif grids stream point-by-point via
// Pool.Stream), and once a figure is assembled (figures run through
// batch entry points, so they have no live per-point progress). A
// failed point does not stop the rest of the batch; the attempt fails
// afterwards so the queue's retry policy applies.
func (e *EngineExecutor) Run(ctx context.Context, spec Spec, report func(Progress)) error {
	view := e.opts.Runner.View()
	opts := e.opts
	opts.Runner = view
	switch spec.Kind {
	case KindSweep:
		plan, err := experiments.PlanSweep(opts, spec.Apps, spec.Machines, spec.Procs)
		if err != nil {
			return err
		}
		return drain(ctx, view, plan.Points(), plan.Stream(ctx),
			func(ev runner.Event) error { return ev.Err }, report)
	case KindFigure:
		var err error
		if spec.Figure == 8 {
			_, err = experiments.Fig8Summary(ctx, opts)
		} else {
			_, err = experiments.FigureN(ctx, opts, spec.Figure)
		}
		if err != nil {
			return err
		}
		st := view.Stats()
		report(progressOf(int(st.Points), st))
		return nil
	case KindWhatIf:
		plan, err := e.whatifPlan(spec)
		if err != nil {
			return err
		}
		return drain(ctx, view, plan.Points(), plan.Stream(ctx, view),
			func(ev whatif.Event) error { return ev.Err }, report)
	default:
		return fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// drain consumes a streamed batch of total points, reporting the view's
// progress up front and after each point, then folds the batch's tail
// into the attempt's error: cancellation wins (it describes the
// caller), then any failed points.
func drain[E any](ctx context.Context, view *runner.Pool, total int, events <-chan E, errOf func(E) error, report func(Progress)) error {
	report(progressOf(total, view.Stats()))
	var firstErr error
	for ev := range events {
		report(progressOf(total, view.Stats()))
		if err := errOf(ev); err != nil && firstErr == nil {
			firstErr = err
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

// WriteResult writes the spec's artifact exactly as the synchronous
// endpoint would: the sweep body is the concatenated point records,
// figures are the figure JSON, whatif the study JSON. For a job that
// just completed, every point is already in the result store, so this
// serves without re-simulation.
func (e *EngineExecutor) WriteResult(ctx context.Context, w io.Writer, spec Spec) error {
	switch spec.Kind {
	case KindSweep:
		plan, err := experiments.PlanSweep(e.opts, spec.Apps, spec.Machines, spec.Procs)
		if err != nil {
			return err
		}
		figs, err := plan.Execute(ctx)
		if err != nil {
			return err
		}
		var results []runner.Result
		for _, fig := range figs {
			results = append(results, fig.Results...)
		}
		return runner.WriteJSON(w, results)
	case KindFigure:
		if spec.Figure == 8 {
			sum, err := experiments.Fig8Summary(ctx, e.opts)
			if err != nil {
				return err
			}
			return sum.JSON(w)
		}
		fig, err := experiments.FigureN(ctx, e.opts, spec.Figure)
		if err != nil {
			return err
		}
		return fig.JSON(w)
	case KindWhatIf:
		plan, err := e.whatifPlan(spec)
		if err != nil {
			return err
		}
		study, err := plan.Execute(ctx, e.opts.Runner)
		if err != nil {
			return err
		}
		return study.JSON(w)
	default:
		return fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}
