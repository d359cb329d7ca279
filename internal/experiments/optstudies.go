package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/runner"
)

// OptResult is one row of an optimisation study: a configuration and its
// runtime relative to the baseline.
type OptResult struct {
	Label   string
	Wall    float64
	Speedup float64 // over the first (baseline) row
}

// RenderOptResults writes an optimisation table.
func RenderOptResults(w io.Writer, title string, rows []OptResult) {
	header(w, title)
	fmt.Fprintf(w, "%-44s %12s %9s\n", "configuration", "wall (s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %12.4f %8.2fx\n", r.Label, r.Wall, r.Speedup)
	}
	fmt.Fprintln(w)
}

func finishSpeedups(rows []OptResult) []OptResult {
	if len(rows) > 0 {
		base := rows[0].Wall
		for i := range rows {
			rows[i].Speedup = base / rows[i].Wall
		}
	}
	return rows
}

// runStudy schedules one job per study variant and folds the walls back
// into labelled rows with speedups over the first (baseline) variant.
func runStudy(ctx context.Context, opts Options, study apps.Study) ([]OptResult, error) {
	jobs := make([]runner.Job, len(study.Labels))
	for i, label := range study.Labels {
		i, label := i, label
		jobs[i] = runner.Job{
			Key: runner.Key(study.ID, label, study.Machine, study.Procs),
			Run: func(ctx context.Context) (runner.Result, error) {
				wall, err := study.Wall(ctx, i)
				if err != nil {
					return runner.Result{}, fmt.Errorf("%s %q: %w", study.ID, label, err)
				}
				return runner.Result{
					Experiment: study.ID, Machine: study.Machine.Name, Procs: study.Procs, WallSec: wall,
				}, nil
			},
		}
	}
	results, err := opts.pool().Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]OptResult, len(study.Labels))
	for i, label := range study.Labels {
		rows[i] = OptResult{Label: label, Wall: results[i].WallSec}
	}
	return finishSpeedups(rows), nil
}

// RunStudyByID runs one optimisation study by its stable identifier
// ("gtcopt", "amropt", "vnode") and returns the study (for its title)
// with the finished rows.
func RunStudyByID(ctx context.Context, opts Options, id string) (apps.Study, []OptResult, error) {
	study, err := apps.StudyByID(id, opts.Quick)
	if err != nil {
		return apps.Study{}, nil, err
	}
	rows, err := runStudy(ctx, opts, study)
	return study, rows, err
}
