// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (architectural microbenchmarks), Table 2
// (application overview), Figure 1 (communication topologies), Figures
// 2–7 (per-application scaling studies in Gflop/s per processor and
// percentage of peak), Figure 8 (cross-application summary), and the
// §3.1/§8.1 optimisation studies.
//
// Each experiment is a cross-product of independent simulation points
// (experiment × machine × concurrency). Rather than looping over the
// points, every experiment expands them into internal/runner jobs and
// assembles its output from the results in deterministic job order, so
// a parallel run through Options.Runner renders byte-identically to a
// serial one — and cached points are reused across invocations.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/runner"
)

// Options control experiment scale and scheduling. The full paper
// concurrencies take a while under simulation on one host; Quick caps
// the processor counts, and Runner fans the independent points of each
// experiment out across a worker pool.
type Options struct {
	// Quick caps concurrency for smoke runs and benchmarks.
	Quick bool
	// MaxProcs, if nonzero, caps every series' processor count.
	MaxProcs int
	// Runner, if non-nil, schedules experiment points across its
	// worker pool and serves repeats from its result cache. A nil
	// Runner falls back to a serial, uncached pool; results are
	// identical either way, because every experiment assembles its
	// output from results in deterministic job order.
	Runner *runner.Pool
	// Machines is the machine namespace sweep and what-if selectors
	// resolve against: the session's custom platforms merged over the
	// built-ins. Nil is the built-in Table 1 testbed only. The paper
	// figures always run on their published built-in specs regardless.
	Machines *machfile.Registry
}

// pool returns the scheduling pool, defaulting to a serial one.
func (o Options) pool() *runner.Pool {
	if o.Runner != nil {
		return o.Runner
	}
	return &runner.Pool{}
}

func (o Options) capProcs(p int) bool {
	if o.MaxProcs > 0 && p > o.MaxProcs {
		return true
	}
	if o.Quick && p > 256 {
		return true
	}
	return false
}

// Series is one machine's curve in a figure.
type Series struct {
	Machine string
	Peak    float64 // stated peak Gflop/s per processor
	Points  []apps.Point
}

// Figure is a rendered experiment: the paper presents each as a pair of
// panels, Gflop/s per processor and percentage of peak.
type Figure struct {
	ID    string
	Title string
	// Scaling is "weak" or "strong".
	Scaling string
	Series  []Series
	Notes   []string
	// Results holds the structured point records the figure was
	// assembled from, in job order, for JSON export.
	Results []runner.Result
}

// procsUnion returns the sorted union of processor counts across series.
func (f *Figure) procsUnion() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			set[pt.Procs] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (f *Figure) point(machineName string, procs int) *apps.Point {
	for i := range f.Series {
		if f.Series[i].Machine != machineName {
			continue
		}
		for j := range f.Series[i].Points {
			if f.Series[i].Points[j].Procs == procs {
				return &f.Series[i].Points[j]
			}
		}
	}
	return nil
}

// Render writes the figure as the paper's two panels in tabular form.
func (f *Figure) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s: %s (%s scaling)\n", f.ID, f.Title, f.Scaling)
	if err := f.renderPanel(w, "(a) Gflop/s per processor", func(p *apps.Point) float64 { return p.Gflops }, "%7.3f"); err != nil {
		return err
	}
	if err := f.renderPanel(w, "(b) percentage of peak", func(p *apps.Point) float64 { return p.PctPeak }, "%6.2f%%"); err != nil {
		return err
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

func (f *Figure) renderPanel(w io.Writer, title string, get func(*apps.Point) float64, format string) error {
	fmt.Fprintf(w, "  %s\n", title)
	fmt.Fprintf(w, "  %8s", "P")
	for _, s := range f.Series {
		fmt.Fprintf(w, " %10s", s.Machine)
	}
	fmt.Fprintln(w)
	for _, p := range f.procsUnion() {
		fmt.Fprintf(w, "  %8d", p)
		for _, s := range f.Series {
			if pt := f.point(s.Machine, p); pt != nil {
				cell := fmt.Sprintf(format, get(pt))
				fmt.Fprintf(w, " %10s", cell)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CSV emits the figure's points for external plotting.
func (f *Figure) CSV(w io.Writer) error {
	fmt.Fprintln(w, "figure,machine,procs,gflops_per_proc,pct_peak,comm_frac,wall_sec")
	for _, s := range f.Series {
		for _, pt := range s.Points {
			fmt.Fprintf(w, "%s,%s,%d,%g,%g,%g,%g\n",
				f.ID, s.Machine, pt.Procs, pt.Gflops, pt.PctPeak, pt.CommFrac, pt.WallSec)
		}
	}
	return nil
}

// JSON emits the figure's structured point records for archival and
// external tooling.
func (f *Figure) JSON(w io.Writer) error {
	return runner.WriteJSON(w, f.Results)
}

// powersOfTwo returns doubling concurrencies from lo to hi inclusive.
func powersOfTwo(lo, hi int) []int {
	var out []int
	for p := lo; p <= hi; p *= 2 {
		out = append(out, p)
	}
	return out
}

// maxPartition returns the largest usable power-of-two partition of a
// machine not exceeding want.
func maxPartition(spec machine.Spec, want int) int {
	p := 1
	for p*2 <= spec.TotalProcs && p*2 <= want {
		p *= 2
	}
	return p
}

// note builds a shared footnote string.
func note(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// header renders a boxed section header for the CLI.
func header(w io.Writer, s string) {
	fmt.Fprintln(w, strings.Repeat("=", len(s)+4))
	fmt.Fprintf(w, "| %s |\n", s)
	fmt.Fprintln(w, strings.Repeat("=", len(s)+4))
}
