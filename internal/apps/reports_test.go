package apps_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/machfile"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/whatif"
)

var updatePointReports = flag.Bool("update", false, "rewrite testdata/pointreports.golden")

// TestPointReportsPinned pins every field of the Report apps.RunPoint
// returns — floats as bit patterns, phases sorted by name — for every
// workload on every built-in machine at P ∈ {4, 16, 64}, on a
// latency-perturbed Bassi, and on a machine-file overlay. It guards the
// simulated results themselves, independent of how RunPoint computes
// them. Regenerate with
//
//	go test ./internal/apps -run TestPointReportsPinned -update
func TestPointReportsPinned(t *testing.T) {
	ctx := context.Background()
	slowBassi, err := whatif.Apply(machine.Bassi, whatif.Latency, 20)
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := machfile.NewRegistry().Parse([]byte(
		`{"base": "jaguar", "name": "jaguar-fatnet", "mpi_latency_us": 3.5, "mpi_bandwidth_gbs": 4.2, "stream_gbs": 3.1}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pin := func(label string, w apps.Workload, spec machine.Spec, procs int) {
		rep, err := apps.RunPoint(ctx, w, spec, procs)
		if err != nil {
			t.Fatalf("%s %s on %s P=%d: %v", label, w.Name(), spec.Name, procs, err)
		}
		fmt.Fprintf(&buf, "%s %s %s P=%d: %s\n", label, w.Name(), spec.Name, procs, reportLine(rep))
	}
	for _, w := range apps.Workloads() {
		for _, spec := range machine.All() {
			for _, procs := range []int{4, 16, 64} {
				pin("builtin", w, spec, procs)
			}
		}
		pin("whatif", w, slowBassi, 16)
		pin("machfile", w, overlay, 16)
	}

	path := filepath.Join("testdata", "pointreports.golden")
	if *updatePointReports {
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
		got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Errorf("line %d diverged from %s:\n got  %s\n want %s", i+1, path, got[i], exp[i])
			}
		}
		if len(got) != len(exp) {
			t.Errorf("%d lines, golden has %d", len(got), len(exp))
		}
	}
}

// reportLine renders every Report field exactly: floats as IEEE-754 bit
// patterns, so a last-bit drift anywhere shows.
func reportLine(rep *simmpi.Report) string {
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	names := make([]string, 0, len(rep.Phases))
	for name := range rep.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	var phases bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&phases, " %s=%s", name, bits(rep.Phases[name]))
	}
	return fmt.Sprintf("machine=%q procs=%d wall=%s flops=%s comm=%s maxcomm=%s bytes=%s msgs=%d imbalance=%s phases:%s",
		rep.Machine, rep.Procs, bits(rep.Wall), bits(rep.TotalFlops), bits(rep.CommFrac),
		bits(rep.MaxCommFrac), bits(rep.BytesSent), rep.Messages, bits(rep.LoadImbalance), phases.String())
}
