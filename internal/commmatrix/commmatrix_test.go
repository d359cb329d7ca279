package commmatrix

import (
	"strings"
	"testing"
)

func TestRecordP2PAndMatrix(t *testing.T) {
	c := NewCollector(4)
	c.RecordP2P(0, 1, 100)
	c.RecordP2P(0, 1, 50)
	c.RecordP2P(2, 3, 10)
	m := c.Matrix()
	if m[0][1] != 150 {
		t.Errorf("m[0][1] = %g, want 150", m[0][1])
	}
	if m[2][3] != 10 {
		t.Errorf("m[2][3] = %g, want 10", m[2][3])
	}
	if c.Messages() != 3 {
		t.Errorf("messages = %d, want 3", c.Messages())
	}
	if c.Bytes() != 160 {
		t.Errorf("bytes = %g, want 160", c.Bytes())
	}
}

func TestRecordIgnoresOutOfRange(t *testing.T) {
	c := NewCollector(2)
	c.RecordP2P(-1, 0, 5)
	c.RecordP2P(0, 7, 5)
	if c.Messages() != 0 {
		t.Error("out-of-range records counted")
	}
}

func TestPartners(t *testing.T) {
	c := NewCollector(4)
	// Ring: each rank talks to exactly one partner.
	for i := 0; i < 4; i++ {
		c.RecordP2P(i, (i+1)%4, 1)
	}
	if got := c.Partners(); got != 1 {
		t.Errorf("partners = %g, want 1", got)
	}
}

func TestLargeRunSkipsMatrixKeepsTotals(t *testing.T) {
	c := NewCollector(5000)
	c.RecordP2P(0, 4999, 7)
	if c.Matrix() != nil {
		t.Error("matrix should not be recorded above the cap")
	}
	if c.Bytes() != 7 {
		t.Errorf("totals lost: %g", c.Bytes())
	}
	var sb strings.Builder
	if err := c.WriteHeatmap(&sb, 16); err == nil {
		t.Error("WriteHeatmap should fail without a matrix")
	}
}

func TestWriteHeatmap(t *testing.T) {
	c := NewCollector(8)
	for i := 0; i < 8; i++ {
		c.RecordP2P(i, (i+1)%8, float64(1+i))
	}
	var sb strings.Builder
	if err := c.WriteHeatmap(&sb, 8); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("heatmap has %d rows, want 8", len(lines))
	}
	// The heaviest cell (7→0) must be darker than the lightest (0→1).
	if lines[7][0] == lines[0][1] {
		t.Error("heatmap does not differentiate intensity")
	}
	// Empty cells render as spaces.
	if lines[0][3] != ' ' {
		t.Errorf("empty cell rendered %q", lines[0][3])
	}
}

func TestWriteHeatmapDownsamples(t *testing.T) {
	c := NewCollector(64)
	c.RecordP2P(0, 63, 5)
	var sb strings.Builder
	if err := c.WriteHeatmap(&sb, 16); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("downsampled heatmap has %d rows, want 16", len(lines))
	}
}

func TestCollectiveCounts(t *testing.T) {
	c := NewCollector(4)
	all := []int{0, 1, 2, 3}
	c.RecordCollective("allreduce", all, 8)
	c.RecordCollective("allreduce", all, 8)
	c.RecordCollective("alltoall", all, 64)
	got := c.CollectiveCounts()
	if len(got) != 2 {
		t.Fatalf("got %d kinds, want 2", len(got))
	}
	if !strings.Contains(got[0], "×2") && !strings.Contains(got[1], "×2") {
		t.Errorf("allreduce count missing: %v", got)
	}
}

// TestRecordCollectivePerPair pins how one member's collective op
// reaches the matrix: an alltoall charges its bytes per pair, any other
// collective spreads them over its members, and a charge of nothing
// shows 8 bytes.
func TestRecordCollectivePerPair(t *testing.T) {
	c := NewCollector(5)
	c.RecordCollective("alltoall", []int{0, 1}, 64)
	c.RecordCollective("allreduce", []int{2, 3, 4}, 96)
	c.RecordCollective("barrier", []int{0, 3}, 0)
	c.RecordCollective("bcast", []int{0, 3}, -1)
	m := c.Matrix()
	for _, tc := range []struct {
		i, j int
		want float64
	}{
		{0, 1, 64}, {1, 0, 64}, {2, 3, 32}, {4, 2, 32}, {0, 3, 16}, {3, 0, 16},
		{0, 0, 0}, {1, 2, 0},
	} {
		if got := m[tc.i][tc.j]; got != tc.want {
			t.Errorf("m[%d][%d] = %g, want %g", tc.i, tc.j, got, tc.want)
		}
	}
	if c.Partners() != 0 {
		t.Errorf("collective traffic counted as partners: %g", c.Partners())
	}
}
