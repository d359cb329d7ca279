package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/commmatrix"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/simmpi"
)

// CommTopo is one application's recorded interprocessor communication
// structure — the data behind the paper's Figure 1 (bottom row).
type CommTopo struct {
	App       string
	Procs     int
	Collector *commmatrix.Collector
}

const (
	// topoLogBytes bounds one capture's op log for every P up to
	// maxTopoProcs: HyperCLaw's, the largest, is 22 MB at P=1024.
	topoLogBytes = 256 << 20
	// maxTopoProcs is commmatrix's dense-matrix bound: no heatmap can
	// be drawn above it.
	maxTopoProcs = 4096
)

// topoProcs resolves the capture concurrency (0 means 64), rejecting
// one no heatmap can be drawn for before any world runs.
func topoProcs(procs int) (int, error) {
	if procs > maxTopoProcs {
		return 0, fmt.Errorf("commtopo: P=%d exceeds the %d ranks a communication matrix holds", procs, maxTopoProcs)
	}
	if procs <= 0 {
		return 64, nil
	}
	return procs, nil
}

// captureTopo records one workload's run under its downsized Figure 1
// capture configuration and folds the op log into a communication
// matrix.
func captureTopo(ctx context.Context, w apps.Workload, spec machine.Spec, procs int) (*commmatrix.Collector, error) {
	rec := simmpi.NewRecorder(topoLogBytes)
	sim := simmpi.Config{Machine: spec, Procs: procs, Record: rec}
	if _, err := w.Run(ctx, sim, apps.TopoConfig(w, spec, procs)); err != nil {
		return nil, fmt.Errorf("commtopo %s: %w", w.Name(), err)
	}
	log := rec.Log()
	if log == nil {
		return nil, fmt.Errorf("commtopo %s P=%d: op log not recorded (over %d MiB, or phases not nested)",
			w.Name(), procs, topoLogBytes>>20)
	}
	col := commmatrix.NewCollector(procs)
	log.Traffic(col.RecordP2P, col.RecordCollective)
	return col, nil
}

// Fig1CommTopos captures every registered workload at a modest
// concurrency and returns the topologies in registry order.
func Fig1CommTopos(ctx context.Context, procs int) ([]CommTopo, error) {
	procs, err := topoProcs(procs)
	if err != nil {
		return nil, err
	}
	spec := machine.Jaguar
	var out []CommTopo
	for _, w := range apps.Workloads() {
		col, err := captureTopo(ctx, w, spec, procs)
		if err != nil {
			return nil, err
		}
		out = append(out, CommTopo{App: w.Name(), Procs: procs, Collector: col})
	}
	return out, nil
}

// Fig1Rendered captures the registered workloads' topologies as
// schedulable (and cacheable) jobs, each result carrying the heatmap
// prerendered at the given size exactly as CommTopo.Render writes it.
func Fig1Rendered(ctx context.Context, opts Options, procs, size int) ([]runner.Result, error) {
	procs, err := topoProcs(procs)
	if err != nil {
		return nil, err
	}
	spec := machine.Jaguar
	workloads := apps.Workloads()
	jobs := make([]runner.Job, len(workloads))
	for i, w := range workloads {
		w := w
		jobs[i] = runner.Job{
			Key: runner.Key("Figure 1", w.Name(), spec, procs, size),
			Run: func(ctx context.Context) (runner.Result, error) {
				col, err := captureTopo(ctx, w, spec, procs)
				if err != nil {
					return runner.Result{}, err
				}
				var buf bytes.Buffer
				ct := CommTopo{App: w.Name(), Procs: procs, Collector: col}
				if err := ct.Render(&buf, size); err != nil {
					return runner.Result{}, fmt.Errorf("commtopo %s: %w", w.Name(), err)
				}
				return runner.Result{
					Experiment: "Figure 1", App: w.Name(), Machine: spec.Name, Procs: procs,
					Output: buf.String(),
				}, nil
			},
		}
	}
	return opts.pool().Run(ctx, jobs)
}

// Render writes the topology heatmap with partner statistics, the
// textual equivalent of one panel of Figure 1's bottom row.
func (c CommTopo) Render(w io.Writer, size int) error {
	fmt.Fprintf(w, "--- %s (P=%d): point-to-point communication topology ---\n", c.App, c.Procs)
	fmt.Fprintf(w, "messages=%d, p2p bytes=%.3g, avg partners/rank=%.1f\n",
		c.Collector.Messages(), c.Collector.Bytes(), c.Collector.Partners())
	for _, s := range c.Collector.CollectiveCounts() {
		fmt.Fprintf(w, "collective: %s\n", s)
	}
	if err := c.Collector.WriteHeatmap(w, size); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}
