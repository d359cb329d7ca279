package hyperclaw

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/amr"
)

// The physics of a HyperCLaw run — the field data, the CFL-limited time
// steps, and the density-gradient regrid tags — depends only on the
// physics inputs of the configuration (see physics) and the rank count,
// never on the machine being modelled or on the cost-only fields: the
// machine spec (and rank mapping) enters the simulation exclusively
// through the communication and compute cost model, and the nominal
// grids and §8.1 ablation switches only scale nominal bytes and charged
// flops. A point run through apps.RunPoint prices its recorded op log
// when one is held, but the optimisation studies call Run directly with
// cost-only variants of a figure's configuration, and a full-scale
// point's log outgrows that cache (one P=1024 log is tens of megabytes):
// those runs would recompute an identical PDE trajectory once per
// ablation variant or machine column that only re-costs the same
// physics. The quick §8.1 ladder replays the P=16 trajectory that
// Figure 7 records.
//
// trajectory captures the few field-derived values the metadata side of
// a run actually consumes, so that repeat runs at the same (physics,
// nprocs) point can skip every field-array operation — patch allocation,
// Godunov sweeps, ghost pack/unpack, prolongation, restriction — and
// replay pure metadata. Replay preserves the exact sequence of simmpi
// operations with identical tags, payload lengths, and nominal byte
// counts (every exchanged payload's length is NFields·|overlap|, a
// function of the box metadata alone, and every nominal count is
// recomputed from the replaying run's own configuration), so the
// modelled Report is bit-identical to a full run's.
type trajectory struct {
	// vmax is the global maximum wave speed per computeDt call, in call
	// order (the only field quantity entering time-step control).
	vmax []float64
	// tagLens is, per regrid tagging round, each rank's packed local tag
	// payload length — it sets the allgather's nominal bytes.
	tagLens [][]int
	// tags is, per regrid tagging round, the global tag set every rank
	// derives from the allgather. Read-only once published.
	tags []amr.TagSet
}

// trajEntry is one cache slot. done is closed when the recording run
// finishes; traj stays nil if it failed, signalling waiters to re-claim.
type trajEntry struct {
	done chan struct{}
	traj *trajectory
}

var (
	trajMu    sync.Mutex
	trajCache = map[string]*trajEntry{}
)

// trajCacheLimit bounds the recorded trajectories kept at once: one
// P=1024 trajectory retains over a hundred thousand tagged cells, and a
// long-running server records one per distinct (physics, P) its clients
// ask for. Like netmodel.Cached, a full cache is cleared rather than
// evicted piecemeal. A quick `petasim all` records 5 trajectories (the
// §8.1 ladder replays Figure 7's) and a full-scale one 7, so at 32 a
// regeneration never records one twice.
const trajCacheLimit = 32

// physics is the part of a Config the trajectory depends on: every
// field the field-data side of a run reads. The rest — NomBase,
// NomMaxBoxCells, NaiveIntersect, CopyingKnapsack — only scales the
// nominal bytes and charged flops a replay recomputes, and the
// knapsack variants assign boxes identically.
type physics struct {
	ActBase        [3]int
	Ratios         []int
	Steps          int
	RegridInterval int
	TagThreshold   float64
	MaxBoxCells    int
	BC             BCType
	CFL            float64
}

// trajKey names a trajectory by its physics inputs and rank count, so
// configurations that differ only in cost share one.
func trajKey(cfg Config, procs int) string {
	return fmt.Sprintf("%+v|P=%d", physics{
		ActBase: cfg.ActBase, Ratios: cfg.Ratios, Steps: cfg.Steps,
		RegridInterval: cfg.RegridInterval, TagThreshold: cfg.TagThreshold,
		MaxBoxCells: cfg.MaxBoxCells, BC: cfg.BC, CFL: cfg.CFL,
	}, procs)
}

// ResetTrajectoryCache drops every recorded trajectory. Benchmark
// bodies that promise fully cold iterations call this between runs.
func ResetTrajectoryCache() {
	trajMu.Lock()
	trajCache = map[string]*trajEntry{}
	trajMu.Unlock()
}

// trajRecorder publishes a trajectory recorded by a full-physics run.
type trajRecorder struct {
	key   string
	entry *trajEntry
	traj  *trajectory
}

// publish completes the recording: on success waiters replay the
// trajectory, on failure (aborted run) the slot is vacated so the next
// run at this point records instead.
func (rec *trajRecorder) publish(ok bool) {
	if ok {
		rec.entry.traj = rec.traj
	} else {
		trajMu.Lock()
		if trajCache[rec.key] == rec.entry {
			delete(trajCache, rec.key)
		}
		trajMu.Unlock()
	}
	close(rec.entry.done)
}

// acquireTrajectory resolves a (config, nprocs) point against the cache:
// a non-nil trajectory means replay it; a non-nil recorder means run the
// full physics and publish through it. Both nil (cancelled while
// waiting) means run the full physics unrecorded — the run is about to
// abort on ctx anyway.
func acquireTrajectory(ctx context.Context, key string) (*trajectory, *trajRecorder) {
	for {
		trajMu.Lock()
		e := trajCache[key]
		if e == nil {
			if len(trajCache) >= trajCacheLimit {
				// In-flight recorders keep their entries and still
				// publish to the waiters already holding them.
				clear(trajCache)
			}
			e = &trajEntry{done: make(chan struct{})}
			trajCache[key] = e
			trajMu.Unlock()
			return nil, &trajRecorder{key: key, entry: e, traj: &trajectory{}}
		}
		trajMu.Unlock()
		select {
		case <-e.done:
			if e.traj != nil {
				return e.traj, nil
			}
			// The recording run failed; loop and race to re-claim.
		case <-ctx.Done():
			return nil, nil
		}
	}
}
