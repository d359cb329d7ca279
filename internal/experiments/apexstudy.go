package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apexmap"
	"repro/internal/machine"
	"repro/internal/runner"
)

// ApexMapStudy runs the Apex-MAP synthetic locality sweep on every
// platform model, one schedulable job per machine, and returns one
// prerendered line per machine in Table 1 order.
func ApexMapStudy(ctx context.Context, opts Options) ([]runner.Result, error) {
	alphas := []float64{0.02, 0.1, 0.5, 1.0}
	ls := []int{1, 8, 64}
	specs := machine.All()
	jobs := make([]runner.Job, len(specs))
	for i, spec := range specs {
		procs := 64
		if procs > spec.TotalProcs {
			procs = spec.TotalProcs
		}
		jobs[i] = runner.Job{
			Key: runner.Key("apexmap", spec, procs, alphas, ls),
			Run: func(ctx context.Context) (runner.Result, error) {
				res, err := apexmap.Sweep(ctx, spec, procs, alphas, ls)
				if err != nil {
					return runner.Result{}, fmt.Errorf("apexmap %s: %w", spec.Name, err)
				}
				var b strings.Builder
				fmt.Fprintf(&b, "%-9s", spec.Name)
				for _, r := range res {
					fmt.Fprintf(&b, "  a=%.2f/L=%-3d %8.2f", r.Alpha, r.L, r.AccessPerUs)
				}
				return runner.Result{
					Experiment: "Apex-MAP", Machine: spec.Name, Procs: procs,
					Output: b.String(),
				}, nil
			},
		}
	}
	return opts.pool().Run(ctx, jobs)
}
