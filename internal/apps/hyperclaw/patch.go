package hyperclaw

import (
	"repro/internal/amr"
)

// ghostWidth is the halo width of every patch (first-order Godunov).
const ghostWidth = 1

// Patch is the field data on one AMR box, with ghost cells. Data is laid
// out field-major, x-fastest within each field.
type Patch struct {
	Box  amr.Box
	G    int
	ex   [3]int // ghost-inclusive extents
	data []float64
	// Pencil work buffers for SweepDim, allocated lazily and reused.
	states []float64
	prims  []prim
	fluxes []float64
}

// NewPatch allocates a zeroed patch over the given box.
func NewPatch(b amr.Box) *Patch {
	p := &Patch{Box: b, G: ghostWidth}
	for d := 0; d < 3; d++ {
		p.ex[d] = b.Extent(d) + 2*p.G
	}
	p.data = make([]float64, NFields*p.ex[0]*p.ex[1]*p.ex[2])
	return p
}

// offset maps global cell coordinates (which may lie in the ghost region)
// and a field index to a data offset.
func (p *Patch) offset(f, i, j, k int) int {
	li := i - p.Box.Lo[0] + p.G
	lj := j - p.Box.Lo[1] + p.G
	lk := k - p.Box.Lo[2] + p.G
	return ((f*p.ex[2]+lk)*p.ex[1]+lj)*p.ex[0] + li
}

// At reads field f at global cell (i, j, k).
func (p *Patch) At(f, i, j, k int) float64 { return p.data[p.offset(f, i, j, k)] }

// Set writes field f at global cell (i, j, k).
func (p *Patch) Set(f, i, j, k int, v float64) { p.data[p.offset(f, i, j, k)] = v }

// State returns the NFields conserved values at a cell as a slice
// (allocating; used by the solver through state buffers instead).
func (p *Patch) State(i, j, k int, out []float64) {
	for f := 0; f < NFields; f++ {
		out[f] = p.At(f, i, j, k)
	}
}

// Fill initialises every interior cell from a function of global cell
// coordinates.
func (p *Patch) Fill(fn func(i, j, k int) [NFields]float64) {
	for k := p.Box.Lo[2]; k < p.Box.Hi[2]; k++ {
		for j := p.Box.Lo[1]; j < p.Box.Hi[1]; j++ {
			for i := p.Box.Lo[0]; i < p.Box.Hi[0]; i++ {
				q := fn(i, j, k)
				for f := 0; f < NFields; f++ {
					p.Set(f, i, j, k, q[f])
				}
			}
		}
	}
}

// PackRegionInto serialises the patch's values over region (which must
// lie in the patch's ghost-inclusive bounds) field-major, appending into
// a caller-supplied buffer (typically a pooled simmpi payload buffer),
// which must be empty with sufficient capacity. Rows along x are
// contiguous in the patch layout, so each is copied as a block.
func (p *Patch) PackRegionInto(region amr.Box, out []float64) []float64 {
	nx := region.Hi[0] - region.Lo[0]
	for f := 0; f < NFields; f++ {
		for k := region.Lo[2]; k < region.Hi[2]; k++ {
			for j := region.Lo[1]; j < region.Hi[1]; j++ {
				off := p.offset(f, region.Lo[0], j, k)
				out = append(out, p.data[off:off+nx]...)
			}
		}
	}
	return out
}

// UnpackRegion writes serialised values into the patch over region,
// row-blocked like PackRegionInto.
func (p *Patch) UnpackRegion(region amr.Box, data []float64) {
	nx := region.Hi[0] - region.Lo[0]
	idx := 0
	for f := 0; f < NFields; f++ {
		for k := region.Lo[2]; k < region.Hi[2]; k++ {
			for j := region.Lo[1]; j < region.Hi[1]; j++ {
				off := p.offset(f, region.Lo[0], j, k)
				copy(p.data[off:off+nx], data[idx:idx+nx])
				idx += nx
			}
		}
	}
}

// GhostBox returns the patch's ghost-inclusive bounds.
func (p *Patch) GhostBox() amr.Box { return p.Box.Grow(p.G) }

// MaxWaveSpeed returns the maximum |u|+c over interior cells.
func (p *Patch) MaxWaveSpeed() float64 {
	var q [NFields]float64
	var m float64
	for k := p.Box.Lo[2]; k < p.Box.Hi[2]; k++ {
		for j := p.Box.Lo[1]; j < p.Box.Hi[1]; j++ {
			for i := p.Box.Lo[0]; i < p.Box.Hi[0]; i++ {
				p.State(i, j, k, q[:])
				if s := maxWaveSpeed(q[:]); s > m {
					m = s
				}
			}
		}
	}
	return m
}

// SweepDim performs one dimensionally split Godunov sweep along dimension
// d with Courant ratio lam = dt/h. Ghost cells must be valid; the caller
// refreshes ghosts between sweeps (as the original does), which makes the
// update exactly conservative across patch boundaries. The update is
// Jacobi-style: fluxes are evaluated on the pre-sweep data.
//
// The sweep works pencil by pencil along d: every cell's primitive
// decomposition is computed once and every interface flux once, where
// the naive per-cell stencil evaluates each interface twice (as both a
// right and a left flux) and each cell's primitives four times. Flux
// values are bit-identical to the naive form — the same hllFlux
// arithmetic on the same pre-sweep states — and the Jacobi update makes
// cell results independent of traversal order. No pre-sweep snapshot of
// the patch is needed: the stencil reads only along the pencil, the
// gather buffer holds the pencil's pre-sweep states, and writes to one
// pencil are never read by another.
func (p *Patch) SweepDim(d int, lam float64) {
	n := p.Box.Extent(d)
	if cap(p.states) < (n+2)*NFields {
		p.states = make([]float64, (n+2)*NFields)
		p.prims = make([]prim, n+2)
		p.fluxes = make([]float64, (n+1)*NFields)
	}
	states := p.states[:(n+2)*NFields]
	prims := p.prims[:n+2]
	fluxes := p.fluxes[:(n+1)*NFields]
	strides := [3]int{1, p.ex[0], p.ex[0] * p.ex[1]}
	cellStride := strides[d]
	fieldStride := p.ex[0] * p.ex[1] * p.ex[2]
	u, v := (d+1)%3, (d+2)%3
	var at [3]int
	at[d] = p.Box.Lo[d] - 1 // pencil origin: one ghost before the interior
	for bv := p.Box.Lo[v]; bv < p.Box.Hi[v]; bv++ {
		at[v] = bv
		for bu := p.Box.Lo[u]; bu < p.Box.Hi[u]; bu++ {
			at[u] = bu
			base := p.offset(0, at[0], at[1], at[2])
			// Gather the pencil's n+2 pre-sweep states and decompose
			// each once.
			for c := 0; c < n+2; c++ {
				off := base + c*cellStride
				q := states[c*NFields : (c+1)*NFields]
				for f := 0; f < NFields; f++ {
					q[f] = p.data[off+f*fieldStride]
				}
				prims[c] = toPrim(q)
			}
			// One HLL solve per interface.
			for m := 0; m <= n; m++ {
				hllFluxP(states[m*NFields:(m+1)*NFields],
					states[(m+1)*NFields:(m+2)*NFields],
					prims[m], prims[m+1], d,
					fluxes[m*NFields:(m+1)*NFields])
			}
			// Conservative update of the n interior cells.
			for c := 0; c < n; c++ {
				off := base + (c+1)*cellStride
				q := states[(c+1)*NFields : (c+2)*NFields]
				fl := fluxes[c*NFields : (c+1)*NFields]
				fr := fluxes[(c+1)*NFields : (c+2)*NFields]
				for f := 0; f < NFields; f++ {
					p.data[off+f*fieldStride] = q[f] - lam*(fr[f]-fl[f])
				}
			}
		}
	}
}

// TagCells marks cells whose relative density gradient exceeds threshold.
func (p *Patch) TagCells(tags amr.TagSet, threshold float64) {
	for k := p.Box.Lo[2]; k < p.Box.Hi[2]; k++ {
		for j := p.Box.Lo[1]; j < p.Box.Hi[1]; j++ {
			for i := p.Box.Lo[0]; i < p.Box.Hi[0]; i++ {
				r := p.At(QRho, i, j, k)
				if r <= 0 {
					continue
				}
				g := 0.0
				for _, d := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
					diff := p.At(QRho, i+d[0], j+d[1], k+d[2]) - p.At(QRho, i-d[0], j-d[1], k-d[2])
					if a := diff / r; a < 0 {
						g -= a
					} else {
						g += a
					}
				}
				if g > threshold {
					tags.Add(i, j, k)
				}
			}
		}
	}
}

// Totals returns the interior sums of every field times the cell volume
// weight w (for conservation accounting).
func (p *Patch) Totals(w float64) [NFields]float64 {
	var t [NFields]float64
	for f := 0; f < NFields; f++ {
		for k := p.Box.Lo[2]; k < p.Box.Hi[2]; k++ {
			for j := p.Box.Lo[1]; j < p.Box.Hi[1]; j++ {
				for i := p.Box.Lo[0]; i < p.Box.Hi[0]; i++ {
					t[f] += p.At(f, i, j, k) * w
				}
			}
		}
	}
	return t
}
