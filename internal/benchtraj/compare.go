package benchtraj

import (
	"fmt"
	"io"
	"strings"
)

// Thresholds define when a new measurement counts as a regression
// rather than noise. Benchmarks are wall-time noisy on shared CI
// hosts, so time comparisons combine a generous fractional bound with
// an absolute floor below which a benchmark is ignored entirely;
// allocation counts are near-deterministic, so they gate tightly.
type Thresholds struct {
	// NsFrac fails a benchmark whose ns/op grew by more than this
	// fraction (0.40 = +40%).
	NsFrac float64
	// MinNs exempts benchmarks whose baseline ns/op is below this
	// floor: micro-entries jitter too much for wall-clock gating.
	MinNs float64
	// AllocFrac fails a benchmark whose allocs/op grew by more than
	// this fraction.
	AllocFrac float64
	// MinAllocs exempts benchmarks allocating fewer than this many
	// objects per op from allocation gating.
	MinAllocs int64
	// SimAllocFrac fails a Sim*-prefixed benchmark whose allocs/op or
	// B/op grew by more than this fraction, with no MinAllocs exemption.
	// The simmpi substrate entries are exactly the ones whose allocation
	// counts the pooled core pins down — a world spawn at 3 allocs/op
	// must not silently creep back to 300 under the general floor, nor a
	// message grow its bytes while keeping its count. Other entries'
	// B/op is reported, not gated.
	SimAllocFrac float64
	// HeadlineFrac fails the record when the cold AllFigures wall time
	// grew by more than this fraction.
	HeadlineFrac float64
}

// DefaultThresholds are tuned for shared CI runners: wide enough that
// scheduler jitter passes, tight enough that a real hot-path regression
// (the kind the trajectory exists to catch) fails.
func DefaultThresholds() Thresholds {
	return Thresholds{
		NsFrac:       0.40,
		MinNs:        50_000, // 50µs
		AllocFrac:    0.15,
		MinAllocs:    64,
		SimAllocFrac: 0.20,
		HeadlineFrac: 0.30,
	}
}

// Delta is one benchmark-metric comparison between two records.
type Delta struct {
	// Name is the benchmark ("(headline)" for the cold-AllFigures row).
	Name string `json:"name"`
	// Metric is "ns/op", "allocs/op", "B/op", or "cold_all_figures_ns".
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Frac is the fractional change ((new-old)/old; +0.25 = 25% slower).
	Frac float64 `json:"frac"`
	// Regressed marks deltas past the thresholds.
	Regressed bool `json:"regressed"`
}

func (d Delta) String() string {
	verdict := "ok"
	if d.Regressed {
		verdict = "REGRESSED"
	}
	return fmt.Sprintf("%-28s %-12s %14.0f -> %14.0f  %+7.1f%%  %s",
		d.Name, d.Metric, d.Old, d.New, d.Frac*100, verdict)
}

// Compare diffs new against old under the thresholds, returning one
// delta per comparable metric. Benchmarks present in only one record
// are skipped: a renamed or newly added entry is not a regression, and
// a deleted one is caught by review, not by the gate.
func Compare(old, new *Record, th Thresholds) ([]Delta, error) {
	if old.Schema != new.Schema {
		return nil, fmt.Errorf("benchtraj: cannot compare schema %d against schema %d",
			new.Schema, old.Schema)
	}
	var out []Delta
	if old.Headline.ColdAllFiguresNs > 0 && new.Headline.ColdAllFiguresNs > 0 {
		d := Delta{
			Name: "(headline)", Metric: "cold_all_figures_ns",
			Old: old.Headline.ColdAllFiguresNs, New: new.Headline.ColdAllFiguresNs,
		}
		d.Frac = (d.New - d.Old) / d.Old
		d.Regressed = th.HeadlineFrac > 0 && d.Frac > th.HeadlineFrac
		out = append(out, d)
	}
	for _, nb := range new.Benchmarks {
		ob, ok := old.Lookup(nb.Name)
		if !ok {
			continue
		}
		if ob.NsPerOp > 0 {
			d := Delta{Name: nb.Name, Metric: "ns/op", Old: ob.NsPerOp, New: nb.NsPerOp}
			d.Frac = (d.New - d.Old) / d.Old
			d.Regressed = th.NsFrac > 0 && ob.NsPerOp >= th.MinNs && d.Frac > th.NsFrac
			out = append(out, d)
		}
		if ob.AllocsPerOp > 0 {
			d := Delta{Name: nb.Name, Metric: "allocs/op",
				Old: float64(ob.AllocsPerOp), New: float64(nb.AllocsPerOp)}
			d.Frac = (d.New - d.Old) / d.Old
			frac, floor := th.AllocFrac, th.MinAllocs
			if th.SimAllocFrac > 0 && strings.HasPrefix(nb.Name, "Sim") {
				frac, floor = th.SimAllocFrac, 0
			}
			d.Regressed = frac > 0 && ob.AllocsPerOp >= floor && d.Frac > frac
			out = append(out, d)
		}
		if ob.BytesPerOp > 0 {
			d := Delta{Name: nb.Name, Metric: "B/op",
				Old: float64(ob.BytesPerOp), New: float64(nb.BytesPerOp)}
			d.Frac = (d.New - d.Old) / d.Old
			d.Regressed = th.SimAllocFrac > 0 && strings.HasPrefix(nb.Name, "Sim") && d.Frac > th.SimAllocFrac
			out = append(out, d)
		}
	}
	return out, nil
}

// Regressions filters a comparison down to the deltas past threshold.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// RenderDeltas writes the comparison as an aligned table.
func RenderDeltas(w io.Writer, deltas []Delta) {
	for _, d := range deltas {
		fmt.Fprintln(w, d.String())
	}
}
