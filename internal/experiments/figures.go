package experiments

import (
	"context"
	"fmt"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/simmpi"
)

// seriesSpec pairs a machine with the concurrencies to run.
type seriesSpec struct {
	spec  machine.Spec
	procs []int
}

// appRunner runs one application instance on (machine, P) under ctx.
type appRunner func(ctx context.Context, spec machine.Spec, procs int) (*simmpi.Report, error)

// figureSpec declares a figure's cross-product — which machines at
// which concurrencies, and how to simulate one point — without running
// anything. jobs expands it into independently schedulable work;
// assemble folds the results back into a Figure.
type figureSpec struct {
	id, title, scaling, app string
	series                  []seriesSpec
	notes                   []string
	run                     appRunner
}

// pointRunnable is the single filter deciding whether a (machine,
// concurrency) point survives the option caps — shared by jobs and
// runnable so plan-time validation can never drift from expansion.
func pointRunnable(opts Options, ss seriesSpec, p int) bool {
	return !opts.capProcs(p) && p <= ss.spec.TotalProcs
}

// jobs expands the (machine × concurrency) cross-product into runner
// jobs, honouring the option caps. Job order is series-major,
// concurrency-minor — the exact order the serial loops used to run.
func (fs *figureSpec) jobs(opts Options) []runner.Job {
	var jobs []runner.Job
	for _, ss := range fs.series {
		for _, p := range ss.procs {
			if !pointRunnable(opts, ss, p) {
				continue
			}
			spec, procs := ss.spec, p
			jobs = append(jobs, runner.Job{
				Key: runner.Key(fs.id, fs.app, spec, procs),
				Run: func(ctx context.Context) (runner.Result, error) {
					rep, err := fs.run(ctx, spec, procs)
					if err != nil {
						return runner.Result{}, fmt.Errorf("%s %s P=%d: %w", fs.id, spec.Name, procs, err)
					}
					return runner.Result{
						Experiment: fs.id, App: fs.app, Machine: spec.Name, Procs: procs,
						Gflops:   rep.GflopsPerProc(),
						PctPeak:  rep.PercentOfPeak(spec.PeakGFs),
						CommFrac: rep.CommFrac,
						WallSec:  rep.Wall,
					}, nil
				},
			})
		}
	}
	return jobs
}

// runnable reports whether any (machine, concurrency) point survives
// the option caps — the same filter jobs applies — without building
// job closures or hashing content keys.
func (fs *figureSpec) runnable(opts Options) bool {
	for _, ss := range fs.series {
		for _, p := range ss.procs {
			if pointRunnable(opts, ss, p) {
				return true
			}
		}
	}
	return false
}

// assemble groups point results back into the figure's series. Results
// arrive in job order, so grouping by first-seen machine reproduces the
// serial construction exactly, whatever pool ran the jobs.
func (fs *figureSpec) assemble(results []runner.Result) *Figure {
	fig := &Figure{ID: fs.id, Title: fs.title, Scaling: fs.scaling, Notes: fs.notes, Results: results}
	peaks := make(map[string]float64, len(fs.series))
	for _, ss := range fs.series {
		peaks[ss.spec.Name] = ss.spec.PeakGFs
	}
	index := map[string]int{}
	for _, r := range results {
		i, ok := index[r.Machine]
		if !ok {
			i = len(fig.Series)
			index[r.Machine] = i
			fig.Series = append(fig.Series, Series{Machine: r.Machine, Peak: peaks[r.Machine]})
		}
		fig.Series[i].Points = append(fig.Series[i].Points, apps.Point{
			App: r.App, Machine: r.Machine, Procs: r.Procs,
			Gflops: r.Gflops, PctPeak: r.PctPeak, CommFrac: r.CommFrac, WallSec: r.WallSec,
		})
	}
	return fig
}

// build schedules the figure's jobs on the options' pool.
func (fs *figureSpec) build(ctx context.Context, opts Options) (*Figure, error) {
	results, err := opts.pool().Run(ctx, fs.jobs(opts))
	if err != nil {
		return nil, err
	}
	return fs.assemble(results), nil
}

// scalingFigure declares one of the paper's per-application scaling
// studies as pure data: the workload's registry name, the title and
// footnotes, and the (machine × concurrency) cross-product. How a point
// is configured, mapped, and run all comes from the workload registry,
// so the six figure builders of the paper collapse into one generic
// generator.
type scalingFigure struct {
	id, title string
	app       string // registry name of the workload
	series    func(opts Options) []seriesSpec
	notes     []string
}

// spec resolves the declaration against the registry into a schedulable
// figureSpec: the scaling direction comes from the workload's Table 2
// row, and every point runs through apps.RunPoint.
func (sf scalingFigure) spec(opts Options) (*figureSpec, error) {
	w, err := apps.Lookup(sf.app)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sf.id, err)
	}
	return &figureSpec{
		id: sf.id, title: sf.title, scaling: w.Meta().Scaling, app: w.Name(),
		series: sf.series(opts),
		notes:  sf.notes,
		run: func(ctx context.Context, spec machine.Spec, procs int) (*simmpi.Report, error) {
			return apps.RunPoint(ctx, w, spec, procs)
		},
	}, nil
}

// build resolves and schedules the figure.
func (sf scalingFigure) build(ctx context.Context, opts Options) (*Figure, error) {
	fs, err := sf.spec(opts)
	if err != nil {
		return nil, err
	}
	return fs.build(ctx, opts)
}

// capped returns full, or quick when the -quick cap is in effect.
func capped(opts Options, full, quick int) int {
	if opts.Quick {
		return quick
	}
	return full
}

// paperFigures declares Figures 2–7 in order. Each entry is only data:
// the registry does the dispatching.
var paperFigures = []scalingFigure{
	{
		id: "Figure 2", title: "GTC weak-scaling performance", app: "GTC",
		series: func(opts Options) []seriesSpec {
			bgw := machine.BGW.WithMode(machine.VirtualNode)
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(64, 512)},
				{machine.Jacquard, powersOfTwo(64, 512)},
				{machine.Jaguar, powersOfTwo(64, 4096)},
				{bgw, powersOfTwo(64, capped(opts, 32768, 256))},
				{machine.Phoenix, powersOfTwo(64, 512)},
			}
		},
		notes: []string{
			"100 particles/cell/proc (10 on BG/L); all BG/L data collected on BGW (virtual node mode)",
		},
	},
	{
		id: "Figure 3", title: "ELBM3D strong-scaling performance (512³ grid)", app: "ELBM3D",
		series: func(Options) []seriesSpec {
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(64, 512)},
				{machine.Jacquard, powersOfTwo(64, 512)},
				{machine.Jaguar, powersOfTwo(64, 1024)},
				{machine.BGL, powersOfTwo(256, 1024)}, // memory floor per §4.1
				{machine.Phoenix, powersOfTwo(64, 512)},
			}
		},
		notes: []string{
			"BG/L data in coprocessor mode; cannot run below 256 processors for this problem size",
		},
	},
	{
		id: "Figure 4", title: "Cactus weak-scaling performance (60³ per processor)", app: "Cactus",
		series: func(opts Options) []seriesSpec {
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(16, 512)},
				{machine.Jacquard, powersOfTwo(16, 512)},
				{machine.BGW, powersOfTwo(16, capped(opts, 16384, 256))},
				{machine.PhoenixX1, powersOfTwo(16, 256)},
			}
		},
		notes: []string{
			"Phoenix data shown on the Cray X1 platform; BG/L data run on BGW",
		},
	},
	{
		id: "Figure 5", title: "BeamBeam3D strong-scaling performance (256²×32 grid, 5M particles)", app: "BeamBeam3D",
		series: func(opts Options) []seriesSpec {
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(64, 512)},
				{machine.Jacquard, powersOfTwo(64, 512)},
				{machine.Jaguar, powersOfTwo(64, 2048)},
				{machine.BGW, powersOfTwo(64, capped(opts, 2048, 256))},
				{machine.Phoenix, powersOfTwo(64, 512)},
			}
		},
		notes: []string{
			"ANL BG/L for P≤512, BGW for P=1024,2048; 2048-way is the highest-concurrency BB3D run to date",
		},
	},
	{
		id: "Figure 6", title: "PARATEC strong-scaling performance (488-atom CdSe quantum dot)", app: "PARATEC",
		series: func(opts Options) []seriesSpec {
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(64, 512)},
				{machine.Jacquard, powersOfTwo(64, 256)}, // memory-bound below 128 in the paper
				{machine.Jaguar, powersOfTwo(64, 2048)},
				{machine.BGW, powersOfTwo(64, capped(opts, 1024, 256))},
				{machine.Phoenix, powersOfTwo(64, 512)},
			}
		},
		notes: []string{
			"BG/L runs the 432-atom bulk-silicon system (memory constraints); Phoenix ran an X1 binary",
		},
	},
	{
		id: "Figure 7", title: "HyperCLaw weak-scaling performance (512×64×32 base grid)", app: "HyperCLaw",
		series: func(opts Options) []seriesSpec {
			return []seriesSpec{
				{machine.Bassi, powersOfTwo(16, 256)},
				{machine.Jacquard, powersOfTwo(16, 128)}, // crashes at P≥256 in the paper
				{machine.Jaguar, powersOfTwo(16, 256)},
				{machine.BGL, powersOfTwo(16, capped(opts, 512, 128))},
				{machine.Phoenix, powersOfTwo(16, 128)}, // crashes at P≥256 in the paper
			}
		},
		notes: []string{
			"base grid refined by 2 then 4 (effective 4096×512×256)",
			"Phoenix and Jacquard experiments crash at P≥256 in the paper; those points are omitted",
		},
	},
}

// paperFigure finds a declaration by figure ID.
func paperFigure(id string) (scalingFigure, error) {
	for _, sf := range paperFigures {
		if sf.id == id {
			return sf, nil
		}
	}
	return scalingFigure{}, fmt.Errorf("experiments: unknown figure %q", id)
}

// buildPaperFigure regenerates one of Figures 2–7 by ID.
func buildPaperFigure(ctx context.Context, opts Options, id string) (*Figure, error) {
	sf, err := paperFigure(id)
	if err != nil {
		return nil, err
	}
	return sf.build(ctx, opts)
}

// Fig2GTC regenerates Figure 2.
func Fig2GTC(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 2")
}

// Fig3ELBM3D regenerates Figure 3.
func Fig3ELBM3D(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 3")
}

// Fig4Cactus regenerates Figure 4.
func Fig4Cactus(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 4")
}

// Fig5BeamBeam3D regenerates Figure 5.
func Fig5BeamBeam3D(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 5")
}

// Fig6PARATEC regenerates Figure 6.
func Fig6PARATEC(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 6")
}

// Fig7HyperCLaw regenerates Figure 7.
func Fig7HyperCLaw(ctx context.Context, opts Options) (*Figure, error) {
	return buildPaperFigure(ctx, opts, "Figure 7")
}

// FigureN regenerates one of the paper's per-application scaling
// figures (2–7) by number — the CLI-free entry point internal/server
// dispatches /v1/figures/{n} through. Figure 8 is a summary, not a
// scaling figure; use Fig8Summary.
func FigureN(ctx context.Context, opts Options, n int) (*Figure, error) {
	if n < 2 || n > 7 {
		return nil, fmt.Errorf("experiments: no scaling figure %d (the paper's scaling studies are Figures 2-7)", n)
	}
	return buildPaperFigure(ctx, opts, fmt.Sprintf("Figure %d", n))
}

// FigureJobs expands paper figure n ∈ 2..8 into its runner jobs, in
// the order FigureN (Fig8Summary for n = 8) assembles their results.
// Every one of these figures' JSON artifacts is runner.WriteJSON over
// the job-ordered results.
func FigureJobs(opts Options, n int) ([]runner.Job, error) {
	if n == 8 {
		return fig8Jobs(opts), nil
	}
	if n < 2 || n > 7 {
		return nil, fmt.Errorf("no figure %d (the engine regenerates figures 2-8)", n)
	}
	sf, err := paperFigure(fmt.Sprintf("Figure %d", n))
	if err != nil {
		return nil, err
	}
	fs, err := sf.spec(opts)
	if err != nil {
		return nil, err
	}
	return fs.jobs(opts), nil
}

// figureSpecs resolves Figures 2–7 in order.
func figureSpecs(opts Options) ([]*figureSpec, error) {
	specs := make([]*figureSpec, len(paperFigures))
	for i, sf := range paperFigures {
		fs, err := sf.spec(opts)
		if err != nil {
			return nil, err
		}
		specs[i] = fs
	}
	return specs, nil
}

// AllFigures runs Figures 2–7, fanning the full (figure × machine ×
// concurrency) cross-product through one pool so the independent points
// of different figures overlap.
func AllFigures(ctx context.Context, opts Options) ([]*Figure, error) {
	specs, err := figureSpecs(opts)
	if err != nil {
		return nil, err
	}
	return buildFigureSpecs(ctx, opts, specs)
}

// buildFigureSpecs pools the specs' jobs through one Run and assembles
// each figure from its slice of the deterministic result order.
func buildFigureSpecs(ctx context.Context, opts Options, specs []*figureSpec) ([]*Figure, error) {
	var jobs []runner.Job
	counts := make([]int, len(specs))
	for i, fs := range specs {
		js := fs.jobs(opts)
		counts[i] = len(js)
		jobs = append(jobs, js...)
	}
	results, err := opts.pool().Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	figs := make([]*Figure, len(specs))
	off := 0
	for i, fs := range specs {
		figs[i] = fs.assemble(results[off : off+counts[i]])
		off += counts[i]
	}
	return figs, nil
}
