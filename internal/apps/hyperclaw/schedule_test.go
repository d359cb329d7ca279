package hyperclaw

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/amr"
)

// randomBoxes returns n boxes of extent 1..6 scattered over a 24³ domain,
// so neighbours overlap often but not always.
func randomBoxes(rng *rand.Rand, n int) []amr.Box {
	boxes := make([]amr.Box, n)
	for i := range boxes {
		var lo, hi [3]int
		for d := 0; d < 3; d++ {
			lo[d] = rng.Intn(24)
			hi[d] = lo[d] + 1 + rng.Intn(6)
		}
		boxes[i] = amr.NewBox(lo, hi)
	}
	return boxes
}

// randomOwners assigns n boxes to ranks drawn from the first used of
// procs ranks, so the ranks from used on own nothing.
func randomOwners(rng *rand.Rand, n, used int) []int {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = rng.Intn(used)
	}
	return owner
}

// TestScheduleMatchesFilteredScan pins the world schedule against the
// per-rank scan it replaces: for every rank, out must list exactly the
// pairs with src == me and in exactly those with dst == me && src != me,
// both in ascending pair order (which fixes each pair's tag and each
// rank's operation order). Box and owner sets are random; owners leave
// some ranks without boxes, put many pairs on one rank at both ends, and
// the same-level kind intersects a list with its own grown boxes, whose
// self pairs must be dropped.
func TestScheduleMatchesFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		procs := 1 + rng.Intn(12)
		used := 1 + rng.Intn(procs)
		nA := rng.Intn(40)
		a := randomBoxes(rng, nA)
		srcOwner := randomOwners(rng, nA, used)
		kind := pairKind(rng.Intn(int(pairRecopy) + 1))
		var b []amr.Box
		var dstOwner []int
		if kind == pairSame {
			b = make([]amr.Box, nA)
			for i, bx := range a {
				b[i] = bx.Grow(ghostWidth)
			}
			dstOwner = srcOwner
		} else {
			nB := rng.Intn(40)
			b = randomBoxes(rng, nB)
			dstOwner = randomOwners(rng, nB, used)
		}
		naive := rng.Intn(2) == 0

		sc := buildSchedule(kind, naive, a, b, srcOwner, dstOwner, procs)

		want := amr.IntersectHashed(a, b)
		if naive {
			want = amr.IntersectNaive(a, b)
		}
		if kind == pairSame {
			want = slices.DeleteFunc(want, func(pr amr.Pair) bool { return pr.A == pr.B })
		}
		if !slices.Equal(sc.pairs, want) {
			t.Fatalf("trial %d (kind %d): schedule pairs differ from the intersection", trial, kind)
		}
		for me := 0; me < procs; me++ {
			var out, in []int32
			for i, pr := range sc.pairs {
				if srcOwner[pr.A] == me {
					out = append(out, int32(i))
				}
				if dstOwner[pr.B] == me && srcOwner[pr.A] != me {
					in = append(in, int32(i))
				}
			}
			if got := sc.outOf(me); !slices.Equal(got, out) {
				t.Fatalf("trial %d rank %d: out = %v, scan gives %v", trial, me, got, out)
			}
			if got := sc.inOf(me); !slices.Equal(got, in) {
				t.Fatalf("trial %d rank %d: in = %v, scan gives %v", trial, me, got, in)
			}
		}
	}
}
