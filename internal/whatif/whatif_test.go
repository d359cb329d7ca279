package whatif

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/machine"
	"repro/internal/runner"
)

func TestApplyScalesEachKnob(t *testing.T) {
	s := machine.Jaguar
	cases := []struct {
		knob Knob
		get  func(machine.Spec) float64
	}{
		{Peak, func(m machine.Spec) float64 { return m.PeakGFs }},
		{Stream, func(m machine.Spec) float64 { return m.StreamGBs }},
		{Latency, func(m machine.Spec) float64 { return m.MPILatency }},
		{Bandwidth, func(m machine.Spec) float64 { return m.MPIBandwidth }},
		{Hop, func(m machine.Spec) float64 { return m.PerHopLat }},
	}
	for _, c := range cases {
		up, err := Apply(s, c.knob, 20)
		if err != nil {
			t.Fatalf("%s: %v", c.knob, err)
		}
		if got, want := c.get(up), c.get(s)*1.2; math.Abs(got-want) > want*1e-12 {
			t.Errorf("%s +20%%: %g, want %g", c.knob, got, want)
		}
		down, err := Apply(s, c.knob, -20)
		if err != nil {
			t.Fatalf("%s: %v", c.knob, err)
		}
		if got, want := c.get(down), c.get(s)*0.8; math.Abs(got-want) > want*1e-12 {
			t.Errorf("%s -20%%: %g, want %g", c.knob, got, want)
		}
	}
}

func TestApplyNodeSizeKeepsNodeCount(t *testing.T) {
	up, err := Apply(machine.Bassi, NodeSize, 50) // 8 → 12 per node
	if err != nil {
		t.Fatal(err)
	}
	if up.ProcsPerNode != 12 || up.Nodes() != machine.Bassi.Nodes() {
		t.Errorf("nodesize +50%%: ppn %d, nodes %d", up.ProcsPerNode, up.Nodes())
	}
	if err := up.Validate(); err != nil {
		t.Error(err)
	}
	// A step too small to move an integer knob rounds back to baseline.
	same, err := Apply(machine.BGL, NodeSize, 10) // 2 → 2.2 → 2
	if err != nil {
		t.Fatal(err)
	}
	if same.ProcsPerNode != machine.BGL.ProcsPerNode || same.TotalProcs != machine.BGL.TotalProcs {
		t.Errorf("small nodesize step changed the spec: %+v", same)
	}
}

func TestApplyRejects(t *testing.T) {
	if _, err := Apply(machine.Bassi, "clock", 10); err == nil {
		t.Error("unknown knob accepted")
	}
	if _, err := Apply(machine.Bassi, Stream, -100); err == nil {
		t.Error("zeroed stream bandwidth validated")
	}
}

func TestParsePerturbs(t *testing.T) {
	got, err := ParsePerturbs("stream=±20%,latency=±50%")
	if err != nil {
		t.Fatal(err)
	}
	want := []Perturbation{{Stream, 20}, {Latency, 50}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	// The ± and % decorations are optional, knobs fold case.
	plain, err := ParsePerturbs("STREAM=20, latency=50")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Errorf("got %+v, want %+v", plain, want)
	}
	if def, err := ParsePerturbs(""); err != nil || len(def) != len(Knobs()) {
		t.Errorf("empty selector: %v, %v (want one perturbation per knob)", def, err)
	}
	for _, bad := range []string{"stream", "clock=10", "stream=0", "stream=100", "stream=x", "stream=10,stream=20", ","} {
		if _, err := ParsePerturbs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestNewPlanValidates(t *testing.T) {
	bassi := []machine.Spec{machine.Bassi}
	cases := []struct {
		name string
		app  string
		ms   []machine.Spec
		pr   []int
		pe   []Perturbation
		st   int
	}{
		{"unknown app", "nosuch", bassi, nil, nil, 1},
		{"no machines", "gtc", nil, nil, nil, 1},
		{"bad procs", "gtc", bassi, []int{0}, nil, 1},
		{"oversized procs", "gtc", bassi, []int{4096}, nil, 1},
		{"negative steps", "gtc", bassi, nil, nil, -1},
		// A half-range past 100% drives the -X% side negative, which no
		// spec survives Validate.
		{"breaking perturb", "gtc", bassi, nil, []Perturbation{{Stream, 150}}, 1},
		// Shrinking Jacquard's nodes by half leaves 320 processors,
		// below the requested concurrency.
		{"shrunk machine", "gtc", []machine.Spec{machine.Jacquard}, []int{512},
			[]Perturbation{{NodeSize, 50}}, 1},
	}
	for _, c := range cases {
		if _, err := NewPlan(c.app, c.ms, c.pr, c.pe, c.st); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestNewPlanBoundsSteps: a steps selector past MaxSteps is a plan
// error, rejected before the grid is built — so an absurd value costs
// nothing.
func TestNewPlanBoundsSteps(t *testing.T) {
	bassi := []machine.Spec{machine.Bassi}
	if _, err := NewPlan("gtc", bassi, nil, nil, MaxSteps); err != nil {
		t.Fatalf("steps = MaxSteps rejected: %v", err)
	}
	if _, err := NewPlan("gtc", bassi, nil, nil, MaxSteps+1); err == nil {
		t.Fatal("steps = MaxSteps+1 accepted")
	}
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		_, err = NewPlan("gtc", bassi, nil, nil, 1_000_000_000)
	})
	if err == nil {
		t.Fatal("steps = 1e9 accepted")
	}
	if allocs > 20 {
		t.Fatalf("rejecting steps = 1e9 made %v allocations; the grid must not be built", allocs)
	}
}

func TestPlanPointsCount(t *testing.T) {
	plan, err := NewPlan("gtc", []machine.Spec{machine.Bassi, machine.Jaguar}, []int{64, 128},
		[]Perturbation{{Stream, 20}, {Latency, 50}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Per (machine, procs): 1 baseline + 2 knobs × 2 steps × 2 sides.
	if got, want := len(plan.Jobs()), 2*2*(1+2*2*2); got != want {
		t.Fatalf("len(Jobs()) = %d, want %d", got, want)
	}
}

// studyPlan is a small real grid: GTC on BG/L, the latency-bound case
// the paper analyses.
func studyPlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := NewPlan("gtc", []machine.Spec{machine.BGL, machine.Bassi}, []int{64},
		[]Perturbation{{Stream, 20}, {Latency, 50}, {Peak, 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExecuteDeterministicAndRanked(t *testing.T) {
	plan := studyPlan(t)
	pool := &runner.Pool{Workers: 8}
	st, err := plan.Execute(context.Background(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != len(plan.Jobs()) {
		t.Fatalf("%d points, want %d", len(st.Points), len(plan.Jobs()))
	}
	if len(st.Tornados) != 2 {
		t.Fatalf("%d tornados, want 2", len(st.Tornados))
	}
	for _, tor := range st.Tornados {
		if tor.BaseWallSec <= 0 {
			t.Fatalf("%s: nonpositive baseline wall", tor.Machine)
		}
		if len(tor.Bars) != 3 {
			t.Fatalf("%s: %d bars, want 3", tor.Machine, len(tor.Bars))
		}
		for i := 1; i < len(tor.Bars); i++ {
			if tor.Bars[i-1].Swing < tor.Bars[i].Swing {
				t.Errorf("%s: bars not ranked by swing: %+v", tor.Machine, tor.Bars)
			}
		}
	}
	// Byte-identical on a rerun through a differently shaped pool.
	again, err := plan.Execute(context.Background(), &runner.Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := st.JSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := again.JSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("study not deterministic across pool shapes")
	}
}

func TestKnobDirections(t *testing.T) {
	// The performance model must respond in the physically sensible
	// direction: more MPI latency can never speed a run up, and more
	// STREAM bandwidth or peak can never slow one down. The tornado's
	// WallDown/WallUp ends make the check direct.
	st, err := studyPlan(t).Execute(context.Background(), &runner.Pool{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range st.Tornados {
		for _, b := range tor.Bars {
			switch b.Knob {
			case Latency:
				if b.WallUp < b.WallDown {
					t.Errorf("%s P=%d: +%g%% latency ran faster than -%g%% (%g < %g)",
						tor.Machine, tor.Procs, b.Pct, b.Pct, b.WallUp, b.WallDown)
				}
			case Stream, Peak:
				if b.WallUp > b.WallDown {
					t.Errorf("%s P=%d: more %s ran slower (%g > %g)",
						tor.Machine, tor.Procs, b.Knob, b.WallUp, b.WallDown)
				}
			}
		}
	}
}

// TestTornadoFractionalHalfRange: the bar's ends are matched by grid
// position, not float equality — pct*i/steps does not always reproduce
// ±pct exactly (0.7*3/3 != 0.7), and a mismatch used to zero the bar.
func TestTornadoFractionalHalfRange(t *testing.T) {
	plan, err := NewPlan("gtc", []machine.Spec{machine.BGL}, []int{64},
		[]Perturbation{{Stream, 0.7}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := plan.Execute(context.Background(), &runner.Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bar := st.Tornados[0].Bars[0]
	if bar.WallDown <= 0 || bar.WallUp <= 0 {
		t.Fatalf("fractional half-range zeroed the bar: %+v", bar)
	}
}

func TestWarmCacheServesRepeatGrids(t *testing.T) {
	plan := studyPlan(t)
	pool := &runner.Pool{Workers: 8, Mem: runner.NewMemCache(256)}
	if _, err := plan.Execute(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	cold := pool.Stats()
	if _, err := plan.Execute(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	warm := pool.Stats()
	if warm.Simulated != cold.Simulated {
		t.Fatalf("warm rerun simulated %d new points", warm.Simulated-cold.Simulated)
	}
}

func TestFrontierDominance(t *testing.T) {
	// Construct a reduced frontier directly: the plan machinery is
	// exercised elsewhere; here the dominance rule itself.
	p := &Plan{points: []pointSpec{
		{procs: 64}, {procs: 128}, {procs: 64},
	}}
	results := []runner.Result{
		{Machine: "fast-small", Procs: 64, WallSec: 10},
		{Machine: "big-slow", Procs: 128, WallSec: 12},  // dominated: more procs AND slower
		{Machine: "also-small", Procs: 64, WallSec: 11}, // dominated by fast-small
	}
	front := p.frontier(results)
	if len(front) != 1 || front[0].Machine != "fast-small" {
		t.Errorf("frontier = %+v", front)
	}
}

// TestStreamDeliversEveryPoint: streaming the plan's jobs delivers
// every grid point once with provenance, and Point maps each event back
// to its perturbation — exactly one baseline.
func TestStreamDeliversEveryPoint(t *testing.T) {
	plan, err := NewPlan("gtc", []machine.Spec{machine.BGL}, []int{64},
		[]Perturbation{{Latency, 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := plan.Jobs()
	seen := map[int]bool{}
	baselines := 0
	for ev := range (&runner.Pool{Workers: 4}).Stream(context.Background(), jobs) {
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
		if ev.Served != runner.ServedSim {
			t.Fatalf("cold point %d served from %s, want simulated", ev.Index, ev.Served)
		}
		if seen[ev.Index] {
			t.Fatalf("point %d delivered twice", ev.Index)
		}
		seen[ev.Index] = true
		if pt := plan.Point(ev.Index, ev.Result); pt.Knob == "" {
			baselines++
		}
	}
	if len(seen) != len(jobs) || baselines != 1 {
		t.Fatalf("streamed %d points (%d baselines), want %d (1)", len(seen), baselines, len(jobs))
	}
}

// TestPerturbedSpecsDistinctKeys mirrors the machfile cache-safety test
// from the whatif side: every distinct perturbation of one machine must
// occupy a distinct cache key, while the no-op perturbation shares the
// baseline's.
func TestPerturbedSpecsDistinctKeys(t *testing.T) {
	base := runner.Key("WhatIf GTC", "GTC", machine.BGL, 64)
	up, err := Apply(machine.BGL, Latency, 50)
	if err != nil {
		t.Fatal(err)
	}
	if runner.Key("WhatIf GTC", "GTC", up, 64) == base {
		t.Fatal("perturbed spec shares the baseline's cache key")
	}
	noop, err := Apply(machine.BGL, NodeSize, 10) // rounds back to the baseline
	if err != nil {
		t.Fatal(err)
	}
	if runner.Key("WhatIf GTC", "GTC", noop, 64) != base {
		t.Fatal("no-op perturbation should share the baseline's cache key")
	}
}

// TestPointErrorNamesKnob: a failed grid point says which perturbation
// produced it, so a what-if failure is traceable to its knob step.
func TestPointErrorNamesKnob(t *testing.T) {
	plan, err := NewPlan("gtc", []machine.Spec{machine.Bassi}, []int{4}, []Perturbation{{Knob: Latency, Pct: 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := plan.Jobs()
	for i, want := range []string{"", "latency-20%: ", "latency+20%: "} {
		_, err := jobs[i].Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job %d on a cancelled context: %v", i, err)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, want+"WhatIf GTC: GTC on Bassi P=4: ") {
			t.Errorf("job %d error %q does not start with %q", i, msg, want+"WhatIf GTC: GTC on Bassi P=4: ")
		}
	}
}
