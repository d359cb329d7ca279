package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/runner"
)

// SummaryCell is one (application, machine) entry of Figure 8.
type SummaryCell struct {
	App      string
	Machine  string
	Procs    int
	Gflops   float64
	PctPeak  float64
	Relative float64 // runtime performance relative to the fastest machine
}

// Summary holds the Figure 8 data: per-application relative performance
// (normalised to the fastest system) and sustained percentage of peak at
// the largest comparable concurrencies.
type Summary struct {
	Cells []SummaryCell
	Notes []string
	// Results holds the structured point records the summary was
	// assembled from, in job order, for CSV/JSON export.
	Results []runner.Result
}

// fig8Procs is the paper's "largest comparable concurrency" per
// application, keyed by registry name.
var fig8Procs = map[string]int{
	"HyperCLaw": 128, "BeamBeam3D": 512, "Cactus": 256,
	"GTC": 512, "ELBM3D": 512, "PARATEC": 512,
}

// fig8ProcsFor returns the concurrency for an app on a machine, honouring
// the BG/L exceptions (P=1024 for Cactus and GTC on BG/L).
func fig8ProcsFor(app string, spec machine.Spec, opts Options) int {
	base := fig8Procs[app]
	if base == 0 {
		base = 256 // workloads added after the paper default to a mid series
	}
	if spec.IsBGL() && (app == "Cactus" || app == "GTC") {
		base = 1024
	}
	if opts.Quick && base > 128 {
		base = 128
	}
	return maxPartition(spec, base)
}

// fig8Machines is Figure 8's column order.
var fig8Machines = []machine.Spec{machine.Bassi, machine.Jacquard, machine.Jaguar, machine.BGL, machine.Phoenix}

// fig8Jobs expands Figure 8 into one job per (application, machine)
// cell, app-major so the results slice indexes as workloads × machines.
func fig8Jobs(opts Options) []runner.Job {
	var jobs []runner.Job
	for _, w := range apps.Workloads() {
		for _, spec := range fig8Machines {
			jobs = append(jobs, PointJob("Figure 8", w, spec, fig8ProcsFor(w.Name(), spec, opts)))
		}
	}
	return jobs
}

// Fig8Summary regenerates the paper's Figure 8. The application rows come
// from the workload registry in its deterministic (sorted) order; each
// cell runs the workload's canonical configuration at the paper's largest
// comparable concurrency.
func Fig8Summary(ctx context.Context, opts Options) (*Summary, error) {
	results, err := opts.pool().Run(ctx, fig8Jobs(opts))
	if err != nil {
		return nil, err
	}
	sum := &Summary{Notes: []string{
		"relative performance normalised to the fastest system per application",
		"Cactus Phoenix results are on the X1 system; BG/L at P=1024 for Cactus and GTC",
	}, Results: results}
	for off := 0; off < len(results); off += len(fig8Machines) {
		cells := make([]SummaryCell, len(fig8Machines))
		best := 0.0
		for mi, r := range results[off : off+len(fig8Machines)] {
			cells[mi] = SummaryCell{
				App: r.App, Machine: r.Machine, Procs: r.Procs,
				Gflops:  r.Gflops,
				PctPeak: r.PctPeak,
			}
			if r.Gflops > best {
				best = r.Gflops
			}
		}
		for i := range cells {
			if best > 0 {
				cells[i].Relative = cells[i].Gflops / best
			}
		}
		sum.Cells = append(sum.Cells, cells...)
	}
	return sum, nil
}

// Machines returns the summary's machine order.
func (s *Summary) Machines() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range s.Cells {
		if !seen[c.Machine] {
			seen[c.Machine] = true
			out = append(out, c.Machine)
		}
	}
	return out
}

// Apps returns the summary's application order.
func (s *Summary) Apps() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range s.Cells {
		if !seen[c.App] {
			seen[c.App] = true
			out = append(out, c.App)
		}
	}
	return out
}

// Cell finds a summary cell.
func (s *Summary) Cell(app, machineName string) *SummaryCell {
	for i := range s.Cells {
		if s.Cells[i].App == app && s.Cells[i].Machine == machineName {
			return &s.Cells[i]
		}
	}
	return nil
}

// AveragePctPeak returns a machine's mean sustained percentage of peak
// across the six applications (Figure 8b's AVERAGE bars).
func (s *Summary) AveragePctPeak(machineName string) float64 {
	var t float64
	n := 0
	for _, c := range s.Cells {
		if c.Machine == machineName {
			t += c.PctPeak
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// AverageRelative returns a machine's mean relative performance.
func (s *Summary) AverageRelative(machineName string) float64 {
	var t float64
	n := 0
	for _, c := range s.Cells {
		if c.Machine == machineName {
			t += c.Relative
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// Render writes both Figure 8 panels.
func (s *Summary) Render(w io.Writer) {
	header(w, "Figure 8. Summary of results for largest comparable concurrencies")
	machines := s.Machines()
	fmt.Fprintln(w, "(a) relative runtime performance normalised to fastest system")
	fmt.Fprintf(w, "%-14s", "App (P)")
	for _, m := range machines {
		fmt.Fprintf(w, " %10s", m)
	}
	fmt.Fprintln(w)
	for _, app := range s.Apps() {
		var p int
		if c := s.Cell(app, machines[0]); c != nil {
			p = c.Procs
		}
		fmt.Fprintf(w, "%-14s", fmt.Sprintf("%s (%d)", app, p))
		for _, m := range machines {
			if c := s.Cell(app, m); c != nil {
				fmt.Fprintf(w, " %10.2f", c.Relative)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "AVERAGE")
	for _, m := range machines {
		fmt.Fprintf(w, " %10.2f", s.AverageRelative(m))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "\n(b) sustained percentage of peak")
	fmt.Fprintf(w, "%-14s", "App")
	for _, m := range machines {
		fmt.Fprintf(w, " %10s", m)
	}
	fmt.Fprintln(w)
	for _, app := range s.Apps() {
		fmt.Fprintf(w, "%-14s", app)
		for _, m := range machines {
			if c := s.Cell(app, m); c != nil {
				fmt.Fprintf(w, " %9.2f%%", c.PctPeak)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "AVERAGE")
	for _, m := range machines {
		fmt.Fprintf(w, " %9.2f%%", s.AveragePctPeak(m))
	}
	fmt.Fprintln(w)
	for _, n := range s.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// CSV emits the summary's point records for external tooling.
func (s *Summary) CSV(w io.Writer) error { return runner.WriteCSV(w, s.Results) }

// JSON emits the summary's structured point records.
func (s *Summary) JSON(w io.Writer) error { return runner.WriteJSON(w, s.Results) }

// Winners returns, per application, the fastest machine — the headline
// comparison of the study.
func (s *Summary) Winners() map[string]string {
	out := map[string]string{}
	for _, app := range s.Apps() {
		bestM, best := "", 0.0
		for _, m := range s.Machines() {
			if c := s.Cell(app, m); c != nil && c.Gflops > best {
				best, bestM = c.Gflops, m
			}
		}
		out[app] = bestM
	}
	return out
}
