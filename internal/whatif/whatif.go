// Package whatif answers capacity-planning questions about hypothetical
// hardware: perturb one published Table 1 quantity of a platform at a
// time — peak Gflop/s, STREAM bandwidth, MPI latency or bandwidth,
// per-hop latency, node size — rerun a workload across the perturbation
// grid, and reduce the results into a tornado-style sensitivity ranking
// (Δwall per ±X% knob) plus a cost-free Pareto frontier across the
// candidate machines.
//
// A Plan expands a (workload × machines × procs × perturbations) grid
// into runner jobs at plan time, so selector errors (unknown knob, a
// perturbation that produces an invalid spec, a concurrency the
// perturbed machine cannot hold) surface before anything simulates.
// Execution reuses the same Pool.Run/Pool.Stream scheduling as the
// paper figures: results assemble in deterministic job order, content
// keys hash the full perturbed spec, and a warm cache serves repeated
// grids without re-simulating — including the no-op points a coarse
// knob produces (a ±10% node-size step on a 2-per-node machine rounds
// back to the baseline spec and is served from its cache entry).
package whatif

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
)

// Knob names one perturbable machine.Spec quantity.
type Knob string

const (
	// Peak scales PeakGFs, the stated per-processor peak.
	Peak Knob = "peak"
	// Stream scales StreamGBs, the measured triad bandwidth.
	Stream Knob = "stream"
	// Latency scales MPILatency.
	Latency Knob = "latency"
	// Bandwidth scales MPIBandwidth.
	Bandwidth Knob = "bandwidth"
	// Hop scales PerHopLat, the per-hop torus latency (a no-op knob on
	// machines that publish none).
	Hop Knob = "hop"
	// NodeSize scales ProcsPerNode, holding the node count fixed (so
	// TotalProcs scales with it) — the paper's fat-node-versus-many-nodes
	// question.
	NodeSize Knob = "nodesize"
)

// Knobs returns every knob in stable presentation order.
func Knobs() []Knob {
	return []Knob{Peak, Stream, Latency, Bandwidth, Hop, NodeSize}
}

// Apply returns s with knob k scaled by pct percent (pct is signed:
// -20 shrinks the quantity to 0.8×). The perturbed spec keeps its name —
// it models the same machine under a hypothesis, and cache keys hash
// content, not names — and must still validate.
func Apply(s machine.Spec, k Knob, pct float64) (machine.Spec, error) {
	f := 1 + pct/100
	out := s
	switch k {
	case Peak:
		out.PeakGFs *= f
	case Stream:
		out.StreamGBs *= f
	case Latency:
		out.MPILatency *= f
	case Bandwidth:
		out.MPIBandwidth *= f
	case Hop:
		out.PerHopLat *= f
	case NodeSize:
		nodes := s.Nodes()
		ppn := int(math.Round(float64(s.ProcsPerNode) * f))
		if ppn < 1 {
			ppn = 1
		}
		out.ProcsPerNode = ppn
		out.TotalProcs = nodes * ppn
	default:
		return machine.Spec{}, fmt.Errorf("whatif: unknown knob %q (known: %s)", k, knobList())
	}
	if err := out.Validate(); err != nil {
		return machine.Spec{}, fmt.Errorf("whatif: %s%+g%% on %s: %w", k, pct, s.Name, err)
	}
	return out, nil
}

func knobList() string {
	ks := Knobs()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

// Perturbation is one knob's half-range: the knob is explored over
// ±Pct percent.
type Perturbation struct {
	Knob Knob    `json:"knob"`
	Pct  float64 `json:"pct"`
}

// DefaultPerturbs explores every knob at ±10%.
func DefaultPerturbs() []Perturbation {
	ks := Knobs()
	out := make([]Perturbation, len(ks))
	for i, k := range ks {
		out[i] = Perturbation{Knob: k, Pct: 10}
	}
	return out
}

// ParsePerturbs parses the CLI/HTTP perturbation selector: comma-
// separated knob=±X% entries ("stream=±20%,latency=±50%"; the ± and %
// are optional). An empty selector means DefaultPerturbs. Half-ranges
// must sit in (0,100): 100% down is a zeroed quantity, which no spec
// survives.
func ParsePerturbs(s string) ([]Perturbation, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultPerturbs(), nil
	}
	var out []Perturbation
	seen := map[Knob]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		knobStr, pctStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("whatif: bad perturbation %q: want knob=±X%% (knobs: %s)", part, knobList())
		}
		k := Knob(strings.ToLower(strings.TrimSpace(knobStr)))
		if !validKnob(k) {
			return nil, fmt.Errorf("whatif: unknown knob %q (known: %s)", knobStr, knobList())
		}
		if seen[k] {
			return nil, fmt.Errorf("whatif: knob %q given twice", k)
		}
		seen[k] = true
		pctStr = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(pctStr), "±"), "%")
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil {
			return nil, fmt.Errorf("whatif: bad half-range in %q: %w", part, err)
		}
		// Negated form so NaN (which fails every comparison) is rejected
		// rather than slipping past both one-sided checks.
		if !(pct > 0 && pct < 100) {
			return nil, fmt.Errorf("whatif: half-range %g%% outside (0,100) in %q", pct, part)
		}
		out = append(out, Perturbation{Knob: k, Pct: pct})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("whatif: empty perturbation list")
	}
	return out, nil
}

func validKnob(k Knob) bool {
	for _, known := range Knobs() {
		if k == known {
			return true
		}
	}
	return false
}

// pointSpec is one expanded grid point: a (possibly perturbed) spec at
// one concurrency, tagged with what produced it.
type pointSpec struct {
	spec     machine.Spec
	procs    int
	knob     Knob    // "" for a baseline point
	deltaPct float64 // signed; 0 for a baseline point
}

// MaxSteps bounds the grid points per side of a knob's half-range. The
// grid is built at plan time, machines × procs × (1 + 2·steps·knobs)
// points, so an unbounded steps selector would let one request
// allocate without limit before anything else is checked.
const MaxSteps = 100

// Plan is a validated what-if study, ready to run. Grid expansion and
// all selector validation happen in NewPlan; Execute only simulates.
type Plan struct {
	workload apps.Workload
	machines []machine.Spec
	procs    []int
	perturbs []Perturbation
	steps    int
	points   []pointSpec
}

// NewPlan validates and expands a what-if grid. appName resolves
// against the workload registry; machines must already be resolved
// specs (built-in or machfile-loaded) — at least one. procs defaults to
// {64}; steps is the number of grid points per side of each knob's
// half-range (1 means just ±X%; at most MaxSteps). Every perturbed
// spec is built and validated here, so a knob that breaks a spec — or
// a concurrency a shrunken machine cannot hold — is a plan error naming
// the knob, not a simulation failure.
func NewPlan(appName string, machines []machine.Spec, procs []int, perturbs []Perturbation, steps int) (*Plan, error) {
	w, err := apps.Lookup(appName)
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("whatif: no machines selected")
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("whatif: %w", err)
		}
	}
	if len(procs) == 0 {
		procs = []int{64}
	}
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("whatif: nonpositive concurrency %d", p)
		}
	}
	if len(perturbs) == 0 {
		perturbs = DefaultPerturbs()
	}
	if steps == 0 {
		steps = 1
	}
	if steps < 1 {
		return nil, fmt.Errorf("whatif: nonpositive steps %d", steps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("whatif: steps %d above the limit of %d", steps, MaxSteps)
	}
	plan := &Plan{workload: w, machines: machines, procs: procs, perturbs: perturbs, steps: steps}
	for _, m := range machines {
		for _, p := range procs {
			if p > m.TotalProcs {
				return nil, fmt.Errorf("whatif: %s holds %d processors, cannot run P=%d", m.Name, m.TotalProcs, p)
			}
			plan.points = append(plan.points, pointSpec{spec: m, procs: p})
			for _, pe := range perturbs {
				for _, delta := range deltas(pe.Pct, steps) {
					ps, err := Apply(m, pe.Knob, delta)
					if err != nil {
						return nil, err
					}
					if p > ps.TotalProcs {
						return nil, fmt.Errorf("whatif: %s%+g%% shrinks %s below P=%d", pe.Knob, delta, m.Name, p)
					}
					plan.points = append(plan.points, pointSpec{spec: ps, procs: p, knob: pe.Knob, deltaPct: delta})
				}
			}
		}
	}
	return plan, nil
}

// deltas returns the signed grid for one knob: steps points per side,
// evenly spaced, ascending, zero excluded (the shared baseline covers
// it).
func deltas(pct float64, steps int) []float64 {
	out := make([]float64, 0, 2*steps)
	for i := steps; i >= 1; i-- {
		out = append(out, -pct*float64(i)/float64(steps))
	}
	for i := 1; i <= steps; i++ {
		out = append(out, pct*float64(i)/float64(steps))
	}
	return out
}

// experiment is the plan's cache-key experiment identifier.
func (p *Plan) experiment() string { return "WhatIf " + p.workload.Name() }

// Jobs expands the grid into runner jobs, one per grid point in the
// order Reduce expects their results. Keys hash the experiment, the
// app, the full (perturbed) spec content, and the concurrency — never
// the knob or delta — so a no-op perturbation shares its baseline's
// cache entry, and two custom machines sharing a name can never share
// one.
func (p *Plan) Jobs() []runner.Job {
	id := p.experiment()
	jobs := make([]runner.Job, len(p.points))
	for i, ps := range p.points {
		jobs[i] = experiments.PointJob(id, p.workload, ps.spec, ps.procs)
		if ps.knob == "" {
			continue
		}
		// A failed perturbed point names the knob step that produced it.
		run, step := jobs[i].Run, fmt.Sprintf("%s%+g%%", ps.knob, ps.deltaPct)
		jobs[i].Run = func(ctx context.Context) (runner.Result, error) {
			r, err := run(ctx)
			if err != nil {
				err = fmt.Errorf("%s: %w", step, err)
			}
			return r, err
		}
	}
	return jobs
}

// Point is one completed grid point: the perturbation that produced it
// (empty knob and zero delta for a baseline) and its result record.
type Point struct {
	Knob     Knob          `json:"knob,omitempty"`
	DeltaPct float64       `json:"delta_pct"`
	Result   runner.Result `json:"result"`
}

// Bar is one knob's tornado bar at one (machine, procs): the wall times
// at the half-range's ends and the relative swing between them.
type Bar struct {
	Knob Knob `json:"knob"`
	// Pct is the knob's half-range.
	Pct float64 `json:"pct"`
	// WallDown and WallUp are the wall seconds at -Pct% and +Pct%.
	WallDown float64 `json:"wall_down_sec"`
	WallUp   float64 `json:"wall_up_sec"`
	// Swing is |WallUp-WallDown| / the baseline wall — the tornado
	// ranking metric: how much of the run this knob moves.
	Swing float64 `json:"swing"`
}

// Tornado is one (machine, procs) sensitivity ranking, bars sorted by
// swing, largest first (ties keep knob order).
type Tornado struct {
	Machine     string  `json:"machine"`
	Procs       int     `json:"procs"`
	BaseWallSec float64 `json:"base_wall_sec"`
	Bars        []Bar   `json:"bars"`
}

// Study is a completed what-if run: every grid point in deterministic
// job order, the per-(machine, procs) tornado rankings, and the Pareto
// frontier of baseline points (machines for which no other candidate is
// both no-larger and no-slower — the cost-free procurement frontier,
// processor count standing in for cost).
type Study struct {
	App      string          `json:"app"`
	Steps    int             `json:"steps"`
	Perturbs []Perturbation  `json:"perturbs"`
	Points   []Point         `json:"points"`
	Tornados []Tornado       `json:"tornados"`
	Frontier []runner.Result `json:"frontier"`
}

// Execute simulates the plan's grid through pool (nil means serial and
// uncached) and reduces it. Like the figures, results assemble in job
// order, so the study is byte-identical for any worker count, and
// repeat runs are cache-served.
func (p *Plan) Execute(ctx context.Context, pool *runner.Pool) (*Study, error) {
	if pool == nil {
		pool = &runner.Pool{}
	}
	results, err := pool.Run(ctx, p.Jobs())
	if err != nil {
		return nil, err
	}
	return p.Reduce(results), nil
}

// Point tags the result of the grid's i-th job with the perturbation
// that produced it — how a consumer streaming Jobs through Pool.Stream
// maps an event's index back to its grid point.
func (p *Plan) Point(i int, r runner.Result) Point {
	ps := p.points[i]
	return Point{Knob: ps.knob, DeltaPct: ps.deltaPct, Result: r}
}

// Reduce folds the results of Jobs, in job order, into the study.
func (p *Plan) Reduce(results []runner.Result) *Study {
	st := &Study{App: p.workload.Name(), Steps: p.steps, Perturbs: p.perturbs}
	st.Points = make([]Point, len(results))
	for i, r := range results {
		st.Points[i] = p.Point(i, r)
	}
	st.Tornados = p.tornados(results)
	st.Frontier = p.frontier(results)
	return st
}

// tornados builds one ranking per (machine, procs), in grid order.
func (p *Plan) tornados(results []runner.Result) []Tornado {
	// The grid layout is fixed by NewPlan: per (machine, procs), one
	// baseline followed by each knob's deltas in ascending order — so a
	// knob's outermost ends are positional (its first and last walls in
	// group order), never a float comparison against ±Pct, which the
	// pct*i/steps arithmetic does not always reproduce exactly.
	perPoint := len(p.points) / (len(p.machines) * len(p.procs))
	var out []Tornado
	i := 0
	for range p.machines {
		for range p.procs {
			group := p.points[i : i+perPoint]
			walls := results[i : i+perPoint]
			i += perPoint
			tor := Tornado{Machine: group[0].spec.Name, Procs: group[0].procs, BaseWallSec: walls[0].WallSec}
			knobWalls := map[Knob][]float64{}
			for j, ps := range group {
				if ps.knob != "" {
					knobWalls[ps.knob] = append(knobWalls[ps.knob], walls[j].WallSec)
				}
			}
			for _, pe := range p.perturbs {
				ws := knobWalls[pe.Knob]
				if len(ws) == 0 {
					continue
				}
				b := Bar{Knob: pe.Knob, Pct: pe.Pct, WallDown: ws[0], WallUp: ws[len(ws)-1]}
				if tor.BaseWallSec > 0 {
					b.Swing = math.Abs(b.WallUp-b.WallDown) / tor.BaseWallSec
				}
				tor.Bars = append(tor.Bars, b)
			}
			sort.SliceStable(tor.Bars, func(a, b int) bool { return tor.Bars[a].Swing > tor.Bars[b].Swing })
			out = append(out, tor)
		}
	}
	return out
}

// frontier keeps the Pareto-dominant baseline points: a candidate
// survives if no other baseline is both no-larger in procs and
// no-slower in wall (with at least one strict improvement). Survivors
// keep job order.
func (p *Plan) frontier(results []runner.Result) []runner.Result {
	var baselines []runner.Result
	for i, ps := range p.points {
		if ps.knob == "" {
			baselines = append(baselines, results[i])
		}
	}
	var out []runner.Result
	for i, a := range baselines {
		dominated := false
		for j, b := range baselines {
			if i == j {
				continue
			}
			if b.Procs <= a.Procs && b.WallSec <= a.WallSec &&
				(b.Procs < a.Procs || b.WallSec < a.WallSec) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// Render writes the study as the CLI's text form: one tornado table per
// (machine, procs) and the frontier.
func (st *Study) Render(w io.Writer) error {
	fmt.Fprintf(w, "What-if sensitivity: %s (%d step(s) per side)\n", st.App, st.Steps)
	for _, tor := range st.Tornados {
		fmt.Fprintf(w, "  %s P=%d  baseline %.4gs\n", tor.Machine, tor.Procs, tor.BaseWallSec)
		fmt.Fprintf(w, "    %-10s %6s %13s %13s %10s\n", "knob", "±%", "wall -X", "wall +X", "swing")
		for _, b := range tor.Bars {
			fmt.Fprintf(w, "    %-10s %6g %12.6gs %12.6gs %9.4g%%\n",
				b.Knob, b.Pct, b.WallDown, b.WallUp, b.Swing*100)
		}
	}
	fmt.Fprintln(w, "  Pareto frontier (procs vs wall, baselines):")
	for _, r := range st.Frontier {
		fmt.Fprintf(w, "    %-12s P=%-6d %10.4gs %8.3f Gflops/P\n", r.Machine, r.Procs, r.WallSec, r.Gflops)
	}
	fmt.Fprintln(w)
	return nil
}

// JSON writes the full study.
func (st *Study) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// CSV writes the grid points with their perturbation columns.
func (st *Study) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "app,machine,procs,knob,delta_pct,gflops_per_proc,pct_peak,comm_frac,wall_sec"); err != nil {
		return err
	}
	for _, pt := range st.Points {
		r := pt.Result
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%g,%g,%g,%g,%g\n",
			r.App, r.Machine, r.Procs, pt.Knob, pt.DeltaPct,
			r.Gflops, r.PctPeak, r.CommFrac, r.WallSec); err != nil {
			return err
		}
	}
	return nil
}
