package amr

// Regridding: tagging coarse cells for refinement, buffering them "to
// ensure that neighboring cells are also refined" (§8.1), and clustering
// tagged cells into refined boxes with a Berger–Rigoutsos-style
// signature-splitting algorithm.

// TagSet is a set of tagged lattice cells.
type TagSet map[[3]int]struct{}

// NewTagSet builds an empty tag set.
func NewTagSet() TagSet { return make(TagSet) }

// Add tags one cell.
func (t TagSet) Add(i, j, k int) { t[[3]int{i, j, k}] = struct{}{} }

// Len returns the number of tagged cells.
func (t TagSet) Len() int { return len(t) }

// Buffer returns the tag set dilated by n cells in every direction
// (Chebyshev ball), clipped to the domain.
func (t TagSet) Buffer(n int, domain Box) TagSet {
	out := NewTagSet()
	for c := range t {
		for dz := -n; dz <= n; dz++ {
			for dy := -n; dy <= n; dy++ {
				for dx := -n; dx <= n; dx++ {
					pt := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
					if domain.Contains(pt) {
						out[pt] = struct{}{}
					}
				}
			}
		}
	}
	return out
}

// BoundingBox returns the minimal box covering all tags.
func (t TagSet) BoundingBox() (Box, bool) {
	if len(t) == 0 {
		return Box{}, false
	}
	first := true
	var b Box
	for c := range t {
		if first {
			b.Lo = c
			b.Hi = [3]int{c[0] + 1, c[1] + 1, c[2] + 1}
			first = false
			continue
		}
		for d := 0; d < 3; d++ {
			if c[d] < b.Lo[d] {
				b.Lo[d] = c[d]
			}
			if c[d]+1 > b.Hi[d] {
				b.Hi[d] = c[d] + 1
			}
		}
	}
	return b, true
}

// countIn returns the number of tags inside box b.
func (t TagSet) countIn(b Box) int {
	n := 0
	for c := range t {
		if b.Contains(c) {
			n++
		}
	}
	return n
}

// signature returns the per-plane tag counts of box b along dimension d.
func (t TagSet) signature(b Box, d int) []int {
	sig := make([]int, b.Extent(d))
	for c := range t {
		if b.Contains(c) {
			sig[c[d]-b.Lo[d]]++
		}
	}
	return sig
}

// Cluster covers the tagged cells with boxes whose tag density is at
// least minEff, splitting at signature holes and inflection points in the
// Berger–Rigoutsos manner. maxCells bounds individual box sizes
// (0 = unbounded).
func Cluster(tags TagSet, minEff float64, maxCells int) []Box {
	bb, ok := tags.BoundingBox()
	if !ok {
		return nil
	}
	var out []Box
	var recurse func(b Box, depth int)
	recurse = func(b Box, depth int) {
		nTags := tags.countIn(b)
		if nTags == 0 {
			return
		}
		eff := float64(nTags) / float64(b.Size())
		if (eff >= minEff && (maxCells <= 0 || b.Size() <= maxCells)) || depth > 24 || b.Size() == 1 {
			out = append(out, b)
			return
		}
		// Shrink to the tags' bounding box within b first.
		sub := NewTagSet()
		for c := range tags {
			if b.Contains(c) {
				sub[c] = struct{}{}
			}
		}
		tight, _ := sub.BoundingBox()
		if tight != b {
			recurse(tight, depth+1)
			return
		}
		// Pick the longest splittable dimension.
		dim := 0
		for d := 1; d < 3; d++ {
			if b.Extent(d) > b.Extent(dim) {
				dim = d
			}
		}
		if b.Extent(dim) < 2 {
			out = append(out, b)
			return
		}
		sig := tags.signature(b, dim)
		cut := findCut(sig)
		left, right := b, b
		left.Hi[dim] = b.Lo[dim] + cut
		right.Lo[dim] = b.Lo[dim] + cut
		recurse(left, depth+1)
		recurse(right, depth+1)
	}
	recurse(bb, 0)
	if maxCells > 0 {
		out = ChopAll(out, maxCells)
	}
	return out
}

// findCut chooses a split plane from a signature: prefer a hole (zero
// plane), then the strongest inflection of the discrete Laplacian, else
// the midpoint. The returned cut is in (0, len(sig)).
func findCut(sig []int) int {
	n := len(sig)
	// Holes, preferring the most central one.
	best, bestDist := -1, n
	for i := 1; i < n-1; i++ {
		if sig[i] == 0 {
			d := abs(i - n/2)
			if d < bestDist {
				best, bestDist = i, d
			}
		}
	}
	if best > 0 {
		return best
	}
	// Inflection: max |Δ²| transition.
	bestMag := -1
	cut := n / 2
	for i := 1; i < n-2; i++ {
		d2a := sig[i+1] - 2*sig[i] + sig[i-1]
		d2b := sig[i+2] - 2*sig[i+1] + sig[i]
		if (d2a < 0) != (d2b < 0) {
			if mag := abs(d2a - d2b); mag > bestMag {
				bestMag = mag
				cut = i + 1
			}
		}
	}
	if cut <= 0 || cut >= n {
		cut = n / 2
	}
	if cut == 0 {
		cut = 1
	}
	return cut
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
