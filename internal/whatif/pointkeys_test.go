package whatif

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
)

var updatePointKeys = flag.Bool("update", false, "rewrite testdata/pointkeys.golden")

// TestPointKeysPinned pins the content key of every job the three point
// builders expand — the paper figures 2–8, a sweep, and a what-if grid —
// so that a change to how a (workload, machine, P) point becomes a job
// cannot silently invalidate a disk cache or split a shared entry.
// Regenerate with
//
//	go test ./internal/whatif -run TestPointKeysPinned -update
func TestPointKeysPinned(t *testing.T) {
	opts := experiments.Options{Quick: true, MaxProcs: 64}
	var buf bytes.Buffer
	list := func(source string, jobs []runner.Job) {
		for i, j := range jobs {
			fmt.Fprintf(&buf, "%s %d %s\n", source, i, j.Key)
		}
	}
	for n := 2; n <= 8; n++ {
		jobs, err := experiments.FigureJobs(opts, n)
		if err != nil {
			t.Fatal(err)
		}
		list(fmt.Sprintf("figure%d", n), jobs)
	}
	sweep, err := experiments.PlanSweep(opts, []string{"gtc", "cactus"}, []string{"bassi", "bgl"}, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	list("sweep", sweep.Jobs())
	grid, err := NewPlan("elbm3d", []machine.Spec{machine.Bassi, machine.Jaguar}, []int{32, 64},
		[]Perturbation{{Knob: Latency, Pct: 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	list("whatif", grid.Jobs())

	path := filepath.Join("testdata", "pointkeys.golden")
	if *updatePointKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("job content keys diverged from %s:\n--- got ---\n%s", path, buf.String())
	}
}
