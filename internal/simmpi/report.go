package simmpi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// Report aggregates the outcome of one simulated run in the paper's units:
// wall-clock time, Gflop/s per processor (total flops divided by P × wall,
// the paper's "valid baseline flop-count / measured wall-clock time"), and
// percentage of peak.
type Report struct {
	Machine string
	Procs   int

	// Wall is the simulated wall-clock time: the latest rank clock.
	Wall vtime.Seconds
	// TotalFlops is the nominal flop count credited across all ranks.
	TotalFlops float64
	// CommFrac is the mean fraction of wall time spent in communication.
	CommFrac float64
	// MaxCommFrac is the worst rank's communication fraction.
	MaxCommFrac float64
	// BytesSent is the total nominal point-to-point volume.
	BytesSent float64
	// Messages is the total point-to-point message count.
	Messages int64
	// Phases maps phase names to the maximum per-rank accumulated time.
	Phases map[string]vtime.Seconds
	// LoadImbalance is max rank busy time over mean rank busy time.
	LoadImbalance float64
}

// buildReport aggregates one run's per-rank accounts, in rank order.
func buildReport(cfg Config, accts []*acct) *Report {
	rep := &Report{
		Machine: cfg.Machine.Name,
		Procs:   cfg.Procs,
		Phases:  make(map[string]vtime.Seconds),
	}
	var sumComm, sumBusy, maxBusy vtime.Seconds
	for _, a := range accts {
		if t := a.clock.Now(); t > rep.Wall {
			rep.Wall = t
		}
		rep.TotalFlops += a.flops
		rep.BytesSent += a.sent
		rep.Messages += a.nmsgs
		sumComm += a.commT
		sumBusy += a.compT
		if a.compT > maxBusy {
			maxBusy = a.compT
		}
		for name, d := range a.phases {
			if d > rep.Phases[name] {
				rep.Phases[name] = d
			}
		}
	}
	n := float64(len(accts))
	if rep.Wall > 0 {
		rep.CommFrac = sumComm / n / rep.Wall
		for _, a := range accts {
			if f := a.commT / rep.Wall; f > rep.MaxCommFrac {
				rep.MaxCommFrac = f
			}
		}
	}
	if mean := sumBusy / n; mean > 0 {
		rep.LoadImbalance = maxBusy / mean
	}
	return rep
}

// GflopsPerProc returns sustained Gflop/s per processor.
func (r *Report) GflopsPerProc() float64 {
	if r.Wall <= 0 || r.Procs == 0 {
		return 0
	}
	return r.TotalFlops / (float64(r.Procs) * r.Wall) / 1e9
}

// AggregateTflops returns the aggregate sustained Tflop/s of the run.
func (r *Report) AggregateTflops() float64 {
	return r.GflopsPerProc() * float64(r.Procs) / 1e3
}

// PercentOfPeak returns sustained percentage of the platform's stated
// peak, given that peak in Gflop/s per processor.
func (r *Report) PercentOfPeak(peakGFs float64) float64 {
	if peakGFs <= 0 {
		return 0
	}
	return r.GflopsPerProc() / peakGFs * 100
}

// Summary renders a one-line digest.
func (r *Report) Summary(peakGFs float64) string {
	return fmt.Sprintf("%s P=%d: wall=%s %.3f Gflops/P (%.1f%% peak) comm=%.0f%%",
		r.Machine, r.Procs, vtime.Format(r.Wall), r.GflopsPerProc(),
		r.PercentOfPeak(peakGFs), r.CommFrac*100)
}

// PhaseBreakdown renders the recorded phases sorted by descending time.
func (r *Report) PhaseBreakdown() string {
	type kv struct {
		name string
		d    vtime.Seconds
	}
	var items []kv
	for name, d := range r.Phases {
		items = append(items, kv{name, d})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].d != items[j].d {
			return items[i].d > items[j].d
		}
		return items[i].name < items[j].name
	})
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "  %-16s %s\n", it.name, vtime.Format(it.d))
	}
	return b.String()
}
