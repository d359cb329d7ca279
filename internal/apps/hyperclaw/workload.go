package hyperclaw

import (
	"context"
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/simmpi"
)

// workload adapts HyperCLaw to the apps.Workload registry.
type workload struct{}

func init() { apps.Register(workload{}) }

func (workload) Name() string    { return "HyperCLaw" }
func (workload) Meta() apps.Meta { return Meta }

// DefaultConfig is the paper's Figure 7 weak-scaling point: the
// 512×64×32 base grid refined by 2 then 4.
func (workload) DefaultConfig(spec machine.Spec, procs int) any {
	return DefaultConfig(procs)
}

func (workload) Run(ctx context.Context, sim simmpi.Config, cfg any) (*simmpi.Report, error) {
	return Run(ctx, sim, cfg.(Config))
}

// TopoConfig implements apps.TopoConfigurer: small boxes over two steps
// so the dynamic hierarchy exposes the many-to-many pattern of
// Figure 1f.
func (w workload) TopoConfig(spec machine.Spec, procs int) any {
	cfg := w.DefaultConfig(spec, procs).(Config)
	cfg.Steps = 2
	cfg.MaxBoxCells = 64
	return cfg
}

// amroptLadder is the §8.1 knapsack/regrid optimisation ladder, baseline
// first.
var amroptLadder = []struct {
	label          string
	naive, copying bool
}{
	{"original (O(N²) intersect, copying knapsack)", true, true},
	{"+ pointer-swap knapsack", true, false},
	{"+ hashed O(N log N) intersection", false, false},
}

// amroptConfig is rung i of the ladder at procs. Every rung differs from
// Figure 7's point only in cost fields, so all of them replay the
// trajectory that point records.
func amroptConfig(procs, i int) Config {
	cfg := DefaultConfig(procs)
	// A large nominal hierarchy exercises the regrid machinery the way
	// the paper's "hundreds of thousands of boxes" stress it; the §8.1
	// measurements put knapsack+regrid near 60% of large runs.
	cfg.NomBase = [3]int{512 * 8, 64, 32}
	cfg.NomMaxBoxCells = 16 * 16 * 16
	cfg.NaiveIntersect = amroptLadder[i].naive
	cfg.CopyingKnapsack = amroptLadder[i].copying
	return cfg
}

// Studies implements apps.Studier with the §8.1 knapsack/regrid
// optimisation ladder on the X1E: the original O(N²) box intersection
// and list-copying knapsack against the hashed O(N log N) intersection
// and pointer-swap knapsack.
func (workload) Studies(quick bool) []apps.Study {
	procs := 64
	if quick {
		procs = 16
	}
	labels := make([]string, len(amroptLadder))
	for i, v := range amroptLadder {
		labels[i] = v.label
	}
	return []apps.Study{{
		ID:      "amropt",
		Title:   "HyperCLaw knapsack/regrid optimisations on the X1E (§8.1)",
		Machine: machine.Phoenix,
		Procs:   procs,
		Labels:  labels,
		Wall: func(ctx context.Context, i int) (float64, error) {
			rep, err := Run(ctx, simmpi.Config{Machine: machine.Phoenix, Procs: procs}, amroptConfig(procs, i))
			if err != nil {
				return 0, err
			}
			return rep.Wall, nil
		},
	}}
}
