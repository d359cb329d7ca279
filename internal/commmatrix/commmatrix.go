// Package commmatrix folds one simulated run's communication into the
// interprocessor communication matrix — bytes exchanged between every
// pair of ranks — which regenerates the topology/intensity plots of the
// paper's Figure 1 (bottom row). The records come from a walk over the
// run's recorded op log (simmpi's OpLog.Traffic).
package commmatrix

import (
	"fmt"
	"io"
	"sort"
)

// maxMatrixRanks bounds the dense matrix size; above this only the
// message and byte totals are kept (a 32K×32K float64 matrix would be
// 8 GiB).
const maxMatrixRanks = 4096

// Collector accumulates one run's communication records. One goroutine
// fills it. The zero value is not usable; call NewCollector.
type Collector struct {
	n      int
	matrix []float64 // n×n point-to-point bytes, nil when n > maxMatrixRanks
	collM  []float64 // n×n collective-pattern bytes, same gating
	msgs   int64
	bytes  float64          // point-to-point total
	coll   map[string]int64 // collective op counts
}

// NewCollector creates a collector for an n-rank simulation.
func NewCollector(n int) *Collector {
	c := &Collector{n: n, coll: make(map[string]int64)}
	if n <= maxMatrixRanks {
		c.matrix = make([]float64, n*n)
		c.collM = make([]float64, n*n)
	}
	return c
}

// RecordP2P notes a point-to-point message of b bytes from src to dst.
func (c *Collector) RecordP2P(src, dst int, b float64) {
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n {
		return
	}
	c.msgs++
	c.bytes += b
	if c.matrix != nil {
		c.matrix[src*c.n+dst] += b
	}
}

// RecordCollective notes one member's op, passing b nominal bytes, in a
// collective of the named kind over members. It counts the op and
// attributes its logical traffic to every ordered pair of members (the
// dense blocks of the paper's Figures 1d and 1e): b per pair for an
// alltoall, b/len(members) for any other collective, whose b is moved
// per rank, and 8 bytes when that is not positive.
func (c *Collector) RecordCollective(kind string, members []int, b float64) {
	c.coll[fmt.Sprintf("%s(p=%d)", kind, len(members))]++
	if c.collM == nil {
		return
	}
	perPair := b
	if kind != "alltoall" {
		perPair = b / float64(len(members))
	}
	if perPair <= 0 {
		perPair = 8
	}
	for _, i := range members {
		if i < 0 || i >= c.n {
			continue
		}
		for _, j := range members {
			if i != j && j >= 0 && j < c.n {
				c.collM[i*c.n+j] += perPair
			}
		}
	}
}

// Messages returns the number of point-to-point messages recorded.
func (c *Collector) Messages() int64 { return c.msgs }

// Bytes returns total point-to-point bytes recorded.
func (c *Collector) Bytes() float64 { return c.bytes }

// Matrix returns a copy of the combined bytes(src,dst) matrix
// (point-to-point plus attributed collective traffic), or nil when the
// run was too large for dense recording.
func (c *Collector) Matrix() [][]float64 {
	if c.matrix == nil {
		return nil
	}
	out := make([][]float64, c.n)
	for i := range out {
		row := append([]float64(nil), c.matrix[i*c.n:(i+1)*c.n]...)
		for j := range row {
			row[j] += c.collM[i*c.n+j]
		}
		out[i] = row
	}
	return out
}

// Partners returns the average number of distinct POINT-TO-POINT
// communication partners per rank — the quantity that distinguishes
// HyperCLaw's "surprisingly large number of communicating partners" from
// simple stencil codes. Collective traffic is excluded (it would paint
// every pair).
func (c *Collector) Partners() float64 {
	if c.matrix == nil || c.n == 0 {
		return 0
	}
	total := 0
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i != j && c.matrix[i*c.n+j] > 0 {
				total++
			}
		}
	}
	return float64(total) / float64(c.n)
}

// CollectiveCounts returns the recorded collective operations sorted by key.
func (c *Collector) CollectiveCounts() []string {
	keys := make([]string, 0, len(c.coll))
	for k := range c.coll {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s ×%d", k, c.coll[k])
	}
	return out
}

// heatRunes maps intensity deciles to glyphs, light to dark.
var heatRunes = []rune(" .:-=+*#%@")

// WriteHeatmap renders the matrix as an ASCII heatmap of at most size×size
// characters (down-sampling by max over blocks), the textual equivalent of
// Figure 1's bottom row.
func (c *Collector) WriteHeatmap(w io.Writer, size int) error {
	if c.matrix == nil {
		return fmt.Errorf("commmatrix: matrix not recorded for %d ranks", c.n)
	}
	if size <= 0 || size > c.n {
		size = c.n
	}
	// Down-sample by taking the max over each block.
	block := (c.n + size - 1) / size
	cells := (c.n + block - 1) / block
	ds := make([]float64, cells*cells)
	var peak float64
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			v := c.matrix[i*c.n+j] + c.collM[i*c.n+j]
			if v <= 0 {
				continue
			}
			bi, bj := i/block, j/block
			if v > ds[bi*cells+bj] {
				ds[bi*cells+bj] = v
			}
			if v > peak {
				peak = v
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	for i := 0; i < cells; i++ {
		row := make([]rune, cells)
		for j := 0; j < cells; j++ {
			v := ds[i*cells+j]
			idx := 0
			if v > 0 {
				idx = 1 + int(float64(len(heatRunes)-2)*v/peak)
				if idx >= len(heatRunes) {
					idx = len(heatRunes) - 1
				}
			}
			row[j] = heatRunes[idx]
		}
		if _, err := fmt.Fprintln(w, string(row)); err != nil {
			return err
		}
	}
	return nil
}
