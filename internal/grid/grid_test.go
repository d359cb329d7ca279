package grid

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/simmpi"
)

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		64: {4, 4, 4},
		12: {2, 2, 3},
	}
	for p, want := range cases {
		x, y, z := Factor3(p)
		if [3]int{x, y, z} != want {
			t.Errorf("Factor3(%d) = %d,%d,%d, want %v", p, x, y, z, want)
		}
	}
	// Property: factors always multiply back to p and are ordered.
	f := func(n uint16) bool {
		p := int(n%512) + 1
		x, y, z := Factor3(p)
		return x*y*z == p && x <= y && y <= z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecompCoordsRankRoundTrip(t *testing.T) {
	d, err := NewDecomp(24, 48, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.Procs(); r++ {
		px, py, pz := d.Coords(r)
		if d.Rank(px, py, pz) != r {
			t.Fatalf("rank %d round trip failed", r)
		}
	}
}

func TestDecompCoversGridExactly(t *testing.T) {
	d, err := NewDecomp(12, 50, 31, 17)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < d.Procs(); r++ {
		lx, ly, lz := d.LocalExtent(r)
		if lx <= 0 || ly <= 0 || lz <= 0 {
			t.Fatalf("rank %d has empty extent", r)
		}
		total += lx * ly * lz
	}
	if want := 50 * 31 * 17; total != want {
		t.Errorf("decomposition covers %d cells, want %d", total, want)
	}
}

func TestDecompRejectsOversubscription(t *testing.T) {
	if _, err := NewDecomp(64, 2, 2, 2); err == nil {
		t.Error("64 procs on 8 cells accepted")
	}
	if _, err := NewDecomp(0, 8, 8, 8); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestNeighborPeriodicity(t *testing.T) {
	d, _ := NewDecomp(27, 27, 27, 27)
	for r := 0; r < 27; r++ {
		for dim := 0; dim < 3; dim++ {
			up := d.Neighbor(r, dim, +1)
			if d.Neighbor(up, dim, -1) != r {
				t.Fatalf("neighbour inverse broken at rank %d dim %d", r, dim)
			}
		}
	}
}

func TestFieldIndexing(t *testing.T) {
	f := NewField(4, 3, 2, 1)
	f.Set(0, 0, 0, 42)
	f.Set(-1, -1, -1, 7)
	f.Set(4, 3, 2, 9) // far ghost corner
	if f.At(0, 0, 0) != 42 || f.At(-1, -1, -1) != 7 || f.At(4, 3, 2) != 9 {
		t.Error("field get/set with ghosts broken")
	}
	if want := 6 * 5 * 4; len(f.Data) != want {
		t.Errorf("field storage %d, want %d", len(f.Data), want)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := NewField(4, 4, 4, 2)
	f.FillInterior(func(i, j, k int) float64 { return float64(100*i + 10*j + k) })
	// Low X face packed then unpacked into high ghosts must land the
	// interior low cells at i = LX..LX+G-1.
	face := f.PackFaceX(-1, false, false)
	if want := 2 * 4 * 4; len(face) != want {
		t.Fatalf("face length %d, want %d", len(face), want)
	}
	f.UnpackGhostX(+1, false, false, face)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for g := 0; g < 2; g++ {
				if f.At(4+g, j, k) != f.At(g, j, k) {
					t.Fatalf("ghost (%d,%d,%d) != interior", 4+g, j, k)
				}
			}
		}
	}
}

// TestExchangeMatchesGlobalPeriodic is the key correctness test: after a
// ghost exchange, every ghost cell must equal the periodic global field.
func TestExchangeMatchesGlobalPeriodic(t *testing.T) {
	const nx, ny, nz, g = 12, 12, 12, 2
	global := func(i, j, k int) float64 {
		i = ((i % nx) + nx) % nx
		j = ((j % ny) + ny) % ny
		k = ((k % nz) + nz) % nz
		return float64(i*10000 + j*100 + k)
	}
	for _, p := range []int{1, 2, 4, 8} {
		d, err := NewDecomp(p, nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		_, err = simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: p}, func(r *simmpi.Rank) {
			lx, ly, lz := d.LocalExtent(r.ID())
			ox, oy, oz := d.GlobalOrigin(r.ID())
			f := NewField(lx, ly, lz, g)
			f.FillInterior(func(i, j, k int) float64 { return global(ox+i, oy+j, oz+k) })
			ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
			ex.Exchange(f)
			for k := -g; k < lz+g; k++ {
				for j := -g; j < ly+g; j++ {
					for i := -g; i < lx+g; i++ {
						want := global(ox+i, oy+j, oz+k)
						if got := f.At(i, j, k); got != want {
							t.Errorf("p=%d rank=%d cell (%d,%d,%d) = %g, want %g",
								p, r.ID(), i, j, k, got, want)
							return
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExchangeChargesNominalScale(t *testing.T) {
	const p = 8
	run := func(scale float64) float64 {
		d, _ := NewDecomp(p, 16, 16, 16)
		rep, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.BGL, Procs: p}, func(r *simmpi.Rank) {
			lx, ly, lz := d.LocalExtent(r.ID())
			f := NewField(lx, ly, lz, 1)
			ex := &Exchanger{Decomp: d, Rank: r, NomScale: scale}
			ex.Exchange(f)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Wall
	}
	if small, big := run(1), run(1000); big < 5*small {
		t.Errorf("nominal scaling not charged: %g vs %g", small, big)
	}
}

func TestExchangeMultipleFields(t *testing.T) {
	const p = 2
	d, _ := NewDecomp(p, 8, 4, 4)
	_, err := simmpi.RunContext(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: p}, func(r *simmpi.Rank) {
		lx, ly, lz := d.LocalExtent(r.ID())
		a := NewField(lx, ly, lz, 1)
		b := NewField(lx, ly, lz, 1)
		a.FillInterior(func(i, j, k int) float64 { return 1 })
		b.FillInterior(func(i, j, k int) float64 { return 2 })
		ex := &Exchanger{Decomp: d, Rank: r, NomScale: 1}
		ex.Exchange(a, b)
		if a.At(-1, 0, 0) != 1 || b.At(-1, 0, 0) != 2 {
			t.Errorf("fields cross-contaminated: %g %g", a.At(-1, 0, 0), b.At(-1, 0, 0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
