package hyperclaw

import (
	"fmt"

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
// point's log outgrows the cache (one P=1024 log is tens of megabytes):
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
//
// Trajectories are one kind of recording in the apps record-once cache,
// beside the op logs: Run claims its trajKey there, and held
// trajectories share the cache's byte bound, LRU and reset.
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

// Bytes estimates the memory a trajectory holds, for the cache's bound:
// 8 bytes per vmax and per tag length, and 64 per tagged cell, a [3]int
// key in a map plus the slack of a grown map (57–82 bytes per cell
// measured from 1,000 to 112,000 cells). Figure 7's default
// configuration tags 5,768 cells over its 4 rounds at P=16 and 57,884
// at P=512, 0.37 and 3.7 MB.
func (t *trajectory) Bytes() int64 {
	n := int64(len(t.vmax)) * 8
	for i := range t.tags {
		n += int64(len(t.tagLens[i]))*8 + int64(len(t.tags[i]))*64
	}
	return n
}

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

// trajKey names a trajectory in the apps cache by its physics inputs and
// rank count, so configurations that differ only in cost share one. Its
// prefix keeps it apart from RunPoint's "HyperCLaw|" op-log keys.
func trajKey(cfg Config, procs int) string {
	return fmt.Sprintf("hyperclaw-trajectory|%+v|P=%d", physics{
		ActBase: cfg.ActBase, Ratios: cfg.Ratios, Steps: cfg.Steps,
		RegridInterval: cfg.RegridInterval, TagThreshold: cfg.TagThreshold,
		MaxBoxCells: cfg.MaxBoxCells, BC: cfg.BC, CFL: cfg.CFL,
	}, procs)
}
