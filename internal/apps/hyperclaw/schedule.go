package hyperclaw

import (
	"math"
	"slices"

	"repro/internal/amr"
)

// schedule is one exchange's plan for a whole world: the overlap pair
// list of two box lists, their owner tables, and per rank the indices of
// the pairs it takes part in. Box lists and ownership are replicated
// metadata, so every rank would derive the identical schedule; it is
// built once per world per regrid generation (via simmpi.Memo) and
// shared read-only by all ranks.
//
// The per-rank index lists are CSR slices in ascending pair order:
// out[outStart[r]:outStart[r+1]] holds the pairs rank r sources (a
// local copy or a send), in[inStart[r]:inStart[r+1]] the pairs it
// receives from another rank. Pair i travels under tag baseTag+i+1, so
// walking a rank's own indices issues exactly the operations, tags and
// order of a scan over the full list.
type schedule struct {
	pairs    []amr.Pair
	src, dst []int // owners of the pairs' A and B boxes
	outStart []int32
	out      []int32
	inStart  []int32
	in       []int32
}

// buildSchedule intersects a with b and indexes the pairs by rank in one
// pass. Same-level schedules drop their self pairs (box i ∩ grown(i)):
// copying a patch's interior onto itself is a no-op the exchange would
// otherwise pack in full before discarding.
func buildSchedule(kind pairKind, naive bool, a, b []amr.Box, src, dst []int, procs int) *schedule {
	var pairs []amr.Pair
	if naive {
		pairs = amr.IntersectNaive(a, b)
	} else {
		pairs = amr.IntersectHashed(a, b)
	}
	if kind == pairSame {
		pairs = slices.DeleteFunc(pairs, func(pr amr.Pair) bool { return pr.A == pr.B })
	}
	sc := &schedule{
		pairs: pairs, src: src, dst: dst,
		outStart: make([]int32, procs+1),
		inStart:  make([]int32, procs+1),
	}
	for _, pr := range pairs {
		so, do := src[pr.A], dst[pr.B]
		sc.outStart[so+1]++
		if do != so {
			sc.inStart[do+1]++
		}
	}
	for r := 0; r < procs; r++ {
		sc.outStart[r+1] += sc.outStart[r]
		sc.inStart[r+1] += sc.inStart[r]
	}
	sc.out = make([]int32, sc.outStart[procs])
	sc.in = make([]int32, sc.inStart[procs])
	outNext := slices.Clone(sc.outStart[:procs])
	inNext := slices.Clone(sc.inStart[:procs])
	for i, pr := range pairs {
		so, do := src[pr.A], dst[pr.B]
		sc.out[outNext[so]] = int32(i)
		outNext[so]++
		if do != so {
			sc.in[inNext[do]] = int32(i)
			inNext[do]++
		}
	}
	return sc
}

// outOf returns the pairs rank r sources, in ascending pair order.
func (sc *schedule) outOf(r int) []int32 { return sc.out[sc.outStart[r]:sc.outStart[r+1]] }

// inOf returns the pairs rank r receives from another rank, in ascending
// pair order.
func (sc *schedule) inOf(r int) []int32 { return sc.in[sc.inStart[r]:sc.inStart[r+1]] }

// schedule returns the exchange schedule k for the current regrid
// generation. nA and nB are the lengths of the two box lists; lists
// returns the lists and their owner tables and runs only when this world
// has not built the schedule yet, so the box slices it derives are built
// once per world, not once per rank.
//
// Every rank charges the modelled intersection cost on its first use per
// generation (§8.1: O(N²) versus hashed O(N log N), with nominal box
// counts scaled up from the actual hierarchy), exactly as each rank of
// the original intersects the replicated box lists itself.
func (s *State) schedule(k pairKey, nA, nB int, lists func() (a, b []amr.Box, src, dst []int)) *schedule {
	if sc := s.scheds[k]; sc != nil {
		return sc
	}
	nomBoxes := s.nominalBoxes(nA + nB)
	naive := s.cfg.NaiveIntersect
	ops := nomBoxes * (1 + math.Log2(math.Max(nomBoxes, 2))) * 4
	if naive {
		ops = nomBoxes * nomBoxes
	}
	s.r.Compute(RegridKernel, ops*12)
	sc := s.r.Memo(hclawMemoKey{what: k.kind, naive: naive, lvl: k.lvl, gen: s.gen}, func() any {
		a, b, src, dst := lists()
		return buildSchedule(k.kind, naive, a, b, src, dst, s.r.N())
	}).(*schedule)
	s.scheds[k] = sc
	return sc
}
