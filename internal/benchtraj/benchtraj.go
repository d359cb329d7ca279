// Package benchtraj is the benchmark-trajectory subsystem: it runs the
// curated performance suite in-process, records the results as a
// schema-versioned BENCH_<pr>.json, and diffs records against each other
// with noise-aware thresholds so CI can fail on a regression.
//
// The repository's growth is paced by "make the core faster, and prove
// it" (ROADMAP), and a proof needs a substrate: one JSON trajectory
// point per PR, produced by `petasim bench -json BENCH_<pr>.json` and
// gated by `petasim bench -gate -against BENCH_<prev>.json`. The suite
// mirrors the root bench_test.go benchmarks (which delegate here, so
// `go test -bench` and `petasim bench` measure the same bodies) plus
// simmpi-core microbenchmarks, and the headline metric is the cold
// AllFigures wall time — the figure regeneration cross-product with
// nothing cached, the turnaround number Xu et al. identify as what makes
// simulation-based prediction usable at all.
package benchtraj

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// SchemaVersion identifies the on-disk record layout. Bump it when a
// field changes meaning; Compare refuses to diff across versions.
const SchemaVersion = 1

// Benchmark is one suite entry's measurement.
type Benchmark struct {
	// Name is the suite entry name (bench_test.go's Benchmark<Name>).
	Name string `json:"name"`
	// Iterations is the b.N the harness settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is the wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the allocated bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is the heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Headline is the record's top-line metric.
type Headline struct {
	// ColdAllFiguresNs is the wall time of one cold (uncached,
	// fresh-pool) Figures 2–7 regeneration at reduced concurrency.
	ColdAllFiguresNs float64 `json:"cold_all_figures_ns"`
}

// Record is one trajectory point: the environment it was measured in
// and every suite measurement.
type Record struct {
	Schema     int    `json:"schema"`
	PR         int    `json:"pr,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchtime records the per-entry measuring budget the suite ran
	// with ("" = the testing default of 1s), so two records measured
	// under different budgets are comparable by eye.
	Benchtime  string      `json:"benchtime,omitempty"`
	Headline   Headline    `json:"headline"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Host describes the host the record was measured on — GOMAXPROCS,
// platform and Go version — the facts that make two records' ns/op
// comparable.
func (r *Record) Host() string {
	return fmt.Sprintf("GOMAXPROCS=%d %s/%s %s", r.GOMAXPROCS, r.GOOS, r.GOARCH, r.GoVersion)
}

// Lookup returns the named benchmark, if present.
func (r *Record) Lookup(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// WriteFile writes the record as indented JSON (trailing newline, so the
// committed trajectory files are diff- and editor-friendly).
func (r *Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchtraj: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a record and validates its schema version.
func ReadFile(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchtraj: %w", err)
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchtraj: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchtraj: %s has schema %d, this build reads schema %d",
			path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// benchFilePat matches trajectory files: BENCH_<pr>.json.
var benchFilePat = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Newest returns the path of the highest-numbered BENCH_<pr>.json in
// dir, or "" if none exists — the default -against target, so every PR
// gates on the newest committed trajectory point without naming it.
func Newest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("benchtraj: %w", err)
	}
	best, bestPR := "", -1
	for _, e := range entries {
		m := benchFilePat.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pr, err := strconv.Atoi(m[1])
		if err != nil || pr <= bestPR {
			continue
		}
		best, bestPR = filepath.Join(dir, e.Name()), pr
	}
	return best, nil
}
