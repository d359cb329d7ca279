package hyperclaw

import (
	"repro/internal/amr"
)

// BCType selects the physical boundary treatment.
type BCType int

const (
	// Outflow extrapolates (zero-gradient) at the domain boundary.
	Outflow BCType = iota
	// Reflect mirrors the state with the normal momentum negated
	// (solid walls; conserves mass and energy exactly, used in tests).
	Reflect
)

// Level is one tier of the AMR hierarchy. Box lists and ownership are
// replicated metadata (as in BoxLib); patch data lives on the owner.
type Level struct {
	Index  int
	Ratio  int     // refinement ratio to the next coarser level (1 at base)
	Domain amr.Box // this level's index-space domain
	Boxes  []amr.Box
	Owner  []int
	Patch  map[int]*Patch // box index → data (owned boxes only)
	H      float64        // cell width
	// localCells is the cell count of this rank's boxes, fixed when the
	// level is built (the Godunov sweeps charge it every step).
	localCells int
}

// newLevel builds level idx over boxes, distributing them by the
// knapsack balancer, and allocates this rank's patches (none in a replay
// run). The owner table is replicated metadata, so it is computed once
// per world per regrid generation and shared read-only.
func (s *State) newLevel(idx, ratio int, domain amr.Box, boxes []amr.Box, h float64) *Level {
	owner := s.r.Memo(regridMemoKey{'o', idx, s.gen}, func() any {
		w := amr.BoxWeights(boxes)
		if s.cfg.CopyingKnapsack {
			return amr.KnapsackCopying(w, s.r.N())
		}
		return amr.KnapsackPointer(w, s.r.N())
	}).(amr.Assignment)
	l := &Level{
		Index: idx, Ratio: ratio, Domain: domain,
		Boxes: boxes, Owner: owner,
		Patch: make(map[int]*Patch), H: h,
	}
	me := s.r.ID()
	for i, o := range owner {
		if o != me {
			continue
		}
		l.localCells += boxes[i].Size()
		if s.traj == nil {
			l.Patch[i] = NewPatch(boxes[i])
		}
	}
	return l
}

// applyDomainBC fills a patch's ghost cells that lie outside the level
// domain.
func applyDomainBC(p *Patch, domain amr.Box, bc BCType) {
	gb := p.GhostBox()
	if domain.ContainsBox(gb) {
		return // no ghost cell leaves the domain: nothing to fill
	}
	for k := gb.Lo[2]; k < gb.Hi[2]; k++ {
		for j := gb.Lo[1]; j < gb.Hi[1]; j++ {
			for i := gb.Lo[0]; i < gb.Hi[0]; i++ {
				if domain.Contains([3]int{i, j, k}) {
					continue
				}
				// Mirror (reflect) or clamp (outflow) source cell.
				si, sj, sk := i, j, k
				var flip [NFields]float64
				for f := range flip {
					flip[f] = 1
				}
				reflectIdx := func(v, lo, hi int, mom int) int {
					switch {
					case v < lo:
						if bc == Reflect {
							flip[mom] = -1
							return 2*lo - 1 - v
						}
						return lo
					case v >= hi:
						if bc == Reflect {
							flip[mom] = -1
							return 2*hi - 1 - v
						}
						return hi - 1
					}
					return v
				}
				si = reflectIdx(si, domain.Lo[0], domain.Hi[0], QMx)
				sj = reflectIdx(sj, domain.Lo[1], domain.Hi[1], QMy)
				sk = reflectIdx(sk, domain.Lo[2], domain.Hi[2], QMz)
				// The mirrored source must itself be a valid interior or
				// already-filled ghost cell of this patch; clamp into the
				// patch interior for safety.
				si = clampInt(si, p.Box.Lo[0], p.Box.Hi[0]-1)
				sj = clampInt(sj, p.Box.Lo[1], p.Box.Hi[1]-1)
				sk = clampInt(sk, p.Box.Lo[2], p.Box.Hi[2]-1)
				for f := 0; f < NFields; f++ {
					p.Set(f, i, j, k, p.At(f, si, sj, sk)*flip[f])
				}
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// prolongate writes piecewise-constant coarse values into fine cells of
// region (fine index space), reading from a packed coarse region buffer.
// Cells inside skip (the patch interior) are left untouched when
// interiorOnly ghost filling is requested.
// Rows along x are processed as up to two contiguous segments (the row
// minus the interior span when skipInterior applies), so the per-cell
// Contains test happens once per row, not once per cell. Within a
// segment the fine cells are walked coarse-cell by coarse-cell: each
// coarse value covers a run of up to ratio fine cells, so the division
// and the coarse load happen once per run.
func prolongate(dst *Patch, fineRegion amr.Box, coarseRegion amr.Box, coarseData []float64, ratio int, skipInterior bool) {
	cext := [3]int{coarseRegion.Extent(0), coarseRegion.Extent(1), coarseRegion.Extent(2)}
	csize := cext[0] * cext[1] * cext[2]
	lo, hi := fineRegion.Lo[0], fineRegion.Hi[0]
	fieldStride := dst.ex[0] * dst.ex[1] * dst.ex[2]
	for k := fineRegion.Lo[2]; k < fineRegion.Hi[2]; k++ {
		ck := floorDiv(k, ratio) - coarseRegion.Lo[2]
		inK := k >= dst.Box.Lo[2] && k < dst.Box.Hi[2]
		for j := fineRegion.Lo[1]; j < fineRegion.Hi[1]; j++ {
			cj := floorDiv(j, ratio) - coarseRegion.Lo[1]
			segs := [2][2]int{{lo, hi}}
			if skipInterior && inK && j >= dst.Box.Lo[1] && j < dst.Box.Hi[1] {
				segs[0] = [2]int{lo, min(hi, dst.Box.Lo[0])}
				segs[1] = [2]int{max(lo, dst.Box.Hi[0]), hi}
			}
			crow := (ck*cext[1]+cj)*cext[0] - coarseRegion.Lo[0]
			frow := dst.offset(0, 0, j, k)
			for f := 0; f < NFields; f++ {
				rowBase := f*csize + crow
				rowOff := frow + f*fieldStride
				for _, sg := range segs {
					for i := sg[0]; i < sg[1]; {
						ci := floorDiv(i, ratio)
						run := (ci + 1) * ratio
						if run > sg[1] {
							run = sg[1]
						}
						v := coarseData[rowBase+ci]
						for ; i < run; i++ {
							dst.data[rowOff+i] = v
						}
					}
				}
			}
		}
	}
}

// restrictRegion averages fine patch data down onto the coarse cells of
// coarseRegion (coarse index space), returning the packed averages.
func restrictRegion(src *Patch, coarseRegion amr.Box, ratio int) []float64 {
	return restrictRegionInto(src, coarseRegion, ratio,
		make([]float64, 0, NFields*coarseRegion.Size()))
}

// restrictRegionInto is restrictRegion writing into a caller-supplied
// buffer (typically a pooled simmpi payload buffer), which must be empty
// with sufficient capacity. Every element is written, so the buffer need
// not be zeroed.
func restrictRegionInto(src *Patch, coarseRegion amr.Box, ratio int, buf []float64) []float64 {
	cext := [3]int{coarseRegion.Extent(0), coarseRegion.Extent(1), coarseRegion.Extent(2)}
	csize := cext[0] * cext[1] * cext[2]
	out := buf[:NFields*csize]
	inv := 1.0 / float64(ratio*ratio*ratio)
	for f := 0; f < NFields; f++ {
		base := f * csize
		for ck := coarseRegion.Lo[2]; ck < coarseRegion.Hi[2]; ck++ {
			for cj := coarseRegion.Lo[1]; cj < coarseRegion.Hi[1]; cj++ {
				for ci := coarseRegion.Lo[0]; ci < coarseRegion.Hi[0]; ci++ {
					var sum float64
					for dk := 0; dk < ratio; dk++ {
						for dj := 0; dj < ratio; dj++ {
							for di := 0; di < ratio; di++ {
								sum += src.At(f, ci*ratio+di, cj*ratio+dj, ck*ratio+dk)
							}
						}
					}
					idx := base + ((ck-coarseRegion.Lo[2])*cext[1]+(cj-coarseRegion.Lo[1]))*cext[0] + (ci - coarseRegion.Lo[0])
					out[idx] = sum * inv
				}
			}
		}
	}
	return out
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
