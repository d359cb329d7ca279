package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
)

func quick() Options { return Options{Quick: true, MaxProcs: 64} }

func TestTable1ReproducesPublishedColumns(t *testing.T) {
	rows, err := Table1(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	// Spot-check the measured columns against Table 1.
	for _, r := range rows {
		switch r.Name {
		case "Bassi":
			if r.StreamGBs < 6.4 || r.StreamGBs > 7.2 {
				t.Errorf("Bassi stream %.2f, Table 1 says 6.8", r.StreamGBs)
			}
		case "Phoenix":
			if r.MPIBWGBs < 2.0 || r.MPIBWGBs > 3.6 {
				t.Errorf("Phoenix MPI BW %.2f, Table 1 says 2.9", r.MPIBWGBs)
			}
		case "BG/L":
			if r.MPILatencyUs > 4.0 {
				t.Errorf("BG/L latency %.2f µs, Table 1 says 2.2", r.MPILatencyUs)
			}
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Jaguar") {
		t.Error("render missing Jaguar")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("%d applications, want 6", len(rows))
	}
	lines := map[string]int{
		"GTC": 5000, "ELBM3D": 3000, "CACTUS": 84000,
		"BeamBeam3D": 28000, "PARATEC": 50000, "HyperCLaw": 69000,
	}
	for _, m := range rows {
		if want := lines[m.Name]; m.Lines != want {
			t.Errorf("%s: %d lines, Table 2 says %d", m.Name, m.Lines, want)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf)
	if !strings.Contains(buf.String(), "Particle in Cell") {
		t.Error("render missing methods column")
	}
}

func TestFig2GTCQuick(t *testing.T) {
	fig, err := Fig2GTC(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// Shape: Phoenix must have the highest Gflops/P at P=64.
	var phx, jag float64
	if p := fig.point("Phoenix", 64); p != nil {
		phx = p.Gflops
	}
	if p := fig.point("Jaguar", 64); p != nil {
		jag = p.Gflops
	}
	if phx <= jag {
		t.Errorf("Phoenix (%.2f) not above Jaguar (%.2f) at P=64", phx, jag)
	}
}

func TestFig3ELBM3DQuick(t *testing.T) {
	opts := quick()
	opts.MaxProcs = 256
	fig, err := Fig3ELBM3D(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// All machines in the paper's broad 15–30% band at modest P.
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.PctPeak < 8 || pt.PctPeak > 45 {
				t.Errorf("%s P=%d: %%peak %.1f outside the broad ELBM3D band", s.Machine, pt.Procs, pt.PctPeak)
			}
		}
	}
}

func TestFig4CactusQuick(t *testing.T) {
	fig, err := Fig4Cactus(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
	// Bassi leads in raw Gflops/P.
	b := fig.point("Bassi", 64)
	x := fig.point("Phoenix-X1", 64)
	if b == nil || x == nil || b.Gflops <= x.Gflops {
		t.Error("Bassi not above the X1 on Cactus")
	}
}

func TestFig5BeamBeam3DQuick(t *testing.T) {
	fig, err := Fig5BeamBeam3D(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// No platform above ~5% of peak (allow slack at tiny P).
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.PctPeak > 12 {
				t.Errorf("%s P=%d: BB3D %%peak %.1f too high", s.Machine, pt.Procs, pt.PctPeak)
			}
		}
	}
}

func TestFig6PARATECQuick(t *testing.T) {
	fig, err := Fig6PARATEC(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// Bassi's absolute rate leads the superscalars; Phoenix has the
	// lowest percentage of peak.
	b, j := fig.point("Bassi", 64), fig.point("Jaguar", 64)
	if b == nil || j == nil || b.Gflops <= j.Gflops {
		t.Error("Bassi not leading PARATEC")
	}
	phx := fig.point("Phoenix", 64)
	if phx == nil || phx.PctPeak >= b.PctPeak {
		t.Error("Phoenix percent-of-peak not below Bassi's")
	}
}

func TestFig7HyperCLawQuick(t *testing.T) {
	opts := quick()
	fig, err := Fig7HyperCLaw(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
	// Phoenix %peak below 2 everywhere (paper: 0.8% at P=128).
	for _, s := range fig.Series {
		if s.Machine != "Phoenix" {
			continue
		}
		for _, pt := range s.Points {
			if pt.PctPeak > 2 {
				t.Errorf("Phoenix P=%d %%peak %.2f, paper ~0.8", pt.Procs, pt.PctPeak)
			}
		}
	}
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Errorf("%s: %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Errorf("%s: %s has no points", fig.ID, s.Machine)
		}
		for _, pt := range s.Points {
			if pt.Gflops <= 0 || pt.WallSec <= 0 {
				t.Errorf("%s: %s P=%d has nonpositive results", fig.ID, s.Machine, pt.Procs)
			}
		}
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "percentage of peak") {
		t.Error("render missing second panel")
	}
	buf.Reset()
	if err := fig.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(buf.String(), "\n")) < 3 {
		t.Error("CSV too short")
	}
}

func TestFig8SummaryQuick(t *testing.T) {
	sum, err := Fig8Summary(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Apps()) != 6 || len(sum.Machines()) != 5 {
		t.Fatalf("summary shape %dx%d, want 6x5", len(sum.Apps()), len(sum.Machines()))
	}
	// The application rows derive from the registry in its deterministic
	// (sorted) order, not from a hard-coded list.
	for i, name := range apps.Names() {
		if got := sum.Apps()[i]; got != name {
			t.Errorf("summary app %d is %q, registry says %q", i, got, name)
		}
	}
	// Every app has a winner with relative 1.0.
	for _, app := range sum.Apps() {
		best := 0.0
		for _, m := range sum.Machines() {
			if c := sum.Cell(app, m); c != nil && c.Relative > best {
				best = c.Relative
			}
		}
		if best < 0.999 || best > 1.001 {
			t.Errorf("%s: best relative %.3f, want 1.0", app, best)
		}
	}
	// The paper's headline: Phoenix wins GTC and ELBM3D outright.
	winners := sum.Winners()
	if winners["GTC"] != "Phoenix" {
		t.Errorf("GTC winner %s, paper says Phoenix", winners["GTC"])
	}
	if winners["ELBM3D"] != "Phoenix" {
		t.Errorf("ELBM3D winner %s, paper says Phoenix", winners["ELBM3D"])
	}
	var buf bytes.Buffer
	sum.Render(&buf)
	if !strings.Contains(buf.String(), "AVERAGE") {
		t.Error("summary render missing averages")
	}
}

func TestFig1CommToposQuick(t *testing.T) {
	topos, err := Fig1CommTopos(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(topos) != 6 {
		t.Fatalf("%d topologies, want 6", len(topos))
	}
	partners := map[string]float64{}
	for _, c := range topos {
		partners[c.App] = c.Collector.Partners()
		var buf bytes.Buffer
		if err := c.Render(&buf, 16); err != nil {
			t.Fatalf("%s: %v", c.App, err)
		}
	}
	// Figure 1's qualitative content: HyperCLaw has far more partners
	// than the stencil codes.
	if partners["HyperCLaw"] <= partners["ELBM3D"] {
		t.Errorf("HyperCLaw partners %.1f not above ELBM3D %.1f",
			partners["HyperCLaw"], partners["ELBM3D"])
	}
}

// TestFig1RejectsOversizedP: a concurrency no communication matrix can
// hold fails before any world runs. The context is already cancelled, so
// a capture that did start would fail with the context's error instead.
func TestFig1RejectsOversizedP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := &runner.Pool{Workers: 2}
	_, err := Fig1Rendered(ctx, Options{Runner: pool}, maxTopoProcs+1, 48)
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "P=4097") {
		t.Errorf("Fig1Rendered(P=4097) = %v, want the P bound's error", err)
	}
	if st := pool.Stats(); st.Points != 0 {
		t.Errorf("%d jobs dispatched for a rejected P", st.Points)
	}
	if _, err := Fig1CommTopos(ctx, maxTopoProcs+1); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("Fig1CommTopos(P=4097) = %v, want the P bound's error", err)
	}
}

func TestGTCOptStudyQuick(t *testing.T) {
	_, rows, err := RunStudyByID(context.Background(), quick(), "gtcopt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Each optimisation must not regress, and the ladder reaches ≥1.4x.
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup < rows[i-1].Speedup-0.01 {
			t.Errorf("step %q regressed: %.2f after %.2f", rows[i].Label, rows[i].Speedup, rows[i-1].Speedup)
		}
	}
	final := rows[len(rows)-1].Speedup
	if final < 1.3 || final > 2.5 {
		t.Errorf("combined GTC optimisation %.2fx outside the paper-style band", final)
	}
}

func TestAMROptStudyQuick(t *testing.T) {
	_, rows, err := RunStudyByID(context.Background(), quick(), "amropt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[2].Speedup <= 1.05 {
		t.Errorf("X1E regrid optimisations only %.2fx", rows[2].Speedup)
	}
}

func TestVirtualNodeStudyQuick(t *testing.T) {
	_, rows, err := RunStudyByID(context.Background(), quick(), "vnode")
	if err != nil {
		t.Fatal(err)
	}
	// Per-core efficiency in virtual node mode must be high (paper >95%).
	eff := rows[0].Wall / rows[1].Wall
	if eff < 0.85 || eff > 1.02 {
		t.Errorf("virtual-node per-core efficiency %.2f", eff)
	}
}

// TestApexMapStudyColdWarm renders the Apex-MAP study with the op-log
// cache cold, where each (α, L) point is recorded on one machine and
// priced on the others, and again warm, where every point is priced:
// the outputs must be byte-identical.
func TestApexMapStudyColdWarm(t *testing.T) {
	render := func() string {
		res, err := ApexMapStudy(context.Background(), quick())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res {
			b.WriteString(r.Output)
			b.WriteByte('\n')
		}
		return b.String()
	}
	apps.ResetLogCache()
	cold := render()
	before := apps.LogCache()
	warm := render()
	after := apps.LogCache()
	if cold != warm {
		t.Errorf("Apex-MAP study differs warm:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if after.Misses != before.Misses || after.Hits-before.Hits != 72 {
		t.Errorf("warm study: %d recordings and %d pricings, want 0 and 72",
			after.Misses-before.Misses, after.Hits-before.Hits)
	}
}

func TestRenderChart(t *testing.T) {
	fig := &Figure{ID: "t", Title: "t", Scaling: "weak"}
	fig.Series = []Series{{Machine: "A", Peak: 10, Points: []apps.Point{
		{Machine: "A", Procs: 64, Gflops: 1, PctPeak: 10},
		{Machine: "A", Procs: 256, Gflops: 0.9, PctPeak: 9},
	}}, {Machine: "B", Peak: 5, Points: []apps.Point{
		{Machine: "B", Procs: 64, Gflops: 0.5, PctPeak: 10},
	}}}
	var buf bytes.Buffer
	if err := fig.RenderChart(&buf, "gflops"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "o=A") || !strings.Contains(out, "*=B") {
		t.Errorf("legend missing: %s", out)
	}
	buf.Reset()
	if err := fig.RenderChart(&buf, "pct"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "percentage of peak") {
		t.Error("pct panel title missing")
	}
	empty := &Figure{ID: "e"}
	if err := empty.RenderChart(&buf, "gflops"); err == nil {
		t.Error("empty figure charted")
	}
}
