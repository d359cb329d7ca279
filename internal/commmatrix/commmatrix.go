// Package commmatrix records communication structure and intensity
// during a simulated run. Its main product is the interprocessor
// communication matrix — bytes exchanged between every pair of ranks —
// which regenerates the topology/intensity plots of the paper's
// Figure 1 (bottom row).
package commmatrix

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// maxMatrixRanks bounds the dense matrix size; above this only per-rank
// totals are kept (a 32K×32K float64 matrix would be 8 GiB).
const maxMatrixRanks = 4096

// Collector accumulates communication records. It is safe for concurrent
// use by all ranks of a simulation. The zero value is not usable; call
// NewCollector.
type Collector struct {
	mu     sync.Mutex
	n      int
	matrix []float64 // n×n point-to-point bytes, nil when n > maxMatrixRanks
	collM  []float64 // n×n collective-pattern bytes, same gating
	sent   []float64 // per-source totals
	recv   []float64 // per-destination totals
	msgs   int64
	coll   map[string]int64 // collective op counts
}

// NewCollector creates a collector for an n-rank simulation.
func NewCollector(n int) *Collector {
	c := &Collector{
		n:    n,
		sent: make([]float64, n),
		recv: make([]float64, n),
		coll: make(map[string]int64),
	}
	if n <= maxMatrixRanks {
		c.matrix = make([]float64, n*n)
		c.collM = make([]float64, n*n)
	}
	return c
}

// Ranks returns the number of ranks the collector was sized for.
func (c *Collector) Ranks() int { return c.n }

// RecordP2P notes a point-to-point message of b bytes from src to dst.
func (c *Collector) RecordP2P(src, dst int, b float64) {
	if c == nil || src < 0 || dst < 0 || src >= c.n || dst >= c.n {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs++
	c.sent[src] += b
	c.recv[dst] += b
	if c.matrix != nil {
		c.matrix[src*c.n+dst] += b
	}
}

// RecordCollective notes one collective operation of the named kind over
// p ranks moving b bytes per rank. For matrix purposes collectives are
// attributed along their logical communication pattern by the caller; this
// method only counts them.
func (c *Collector) RecordCollective(kind string, p int, b float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.coll[fmt.Sprintf("%s(p=%d)", kind, p)]++
}

// RecordCollectivePattern attributes a collective's logical traffic to the
// matrix: perPair bytes between every ordered pair of the participating
// ranks (the dense blocks of the paper's Figures 1d and 1e). It is a
// no-op when dense recording is disabled.
func (c *Collector) RecordCollectivePattern(ranks []int, perPair float64) {
	if c == nil || perPair <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.collM == nil {
		return
	}
	for _, i := range ranks {
		if i < 0 || i >= c.n {
			continue
		}
		for _, j := range ranks {
			if i == j || j < 0 || j >= c.n {
				continue
			}
			c.collM[i*c.n+j] += perPair
		}
	}
}

// Messages returns the number of point-to-point messages recorded.
func (c *Collector) Messages() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs
}

// Bytes returns total point-to-point bytes recorded.
func (c *Collector) Bytes() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t float64
	for _, b := range c.sent {
		t += b
	}
	return t
}

// Matrix returns a copy of the combined bytes(src,dst) matrix
// (point-to-point plus attributed collective traffic), or nil when the
// run was too large for dense recording.
func (c *Collector) Matrix() [][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
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

// WriteCSV emits the communication matrix as CSV (src rows, dst columns).
func (c *Collector) WriteCSV(w io.Writer) error {
	m := c.Matrix()
	if m == nil {
		return fmt.Errorf("commmatrix: matrix not recorded for %d ranks", c.n)
	}
	for _, row := range m {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%g", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// heatRunes maps intensity deciles to glyphs, light to dark.
var heatRunes = []rune(" .:-=+*#%@")

// WriteHeatmap renders the matrix as an ASCII heatmap of at most size×size
// characters (down-sampling by max over blocks), the textual equivalent of
// Figure 1's bottom row.
func (c *Collector) WriteHeatmap(w io.Writer, size int) error {
	m := c.Matrix()
	if m == nil {
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
			v := m[i][j]
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
