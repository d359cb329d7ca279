package commmatrix

import (
	"strings"
	"sync"
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
	var nilC *Collector
	nilC.RecordP2P(0, 0, 1) // must not panic
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
	if err := c.WriteCSV(&sb); err == nil {
		t.Error("WriteCSV should fail without a matrix")
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordP2P(src, (src+1)%8, 1)
			}
		}(i)
	}
	wg.Wait()
	if c.Messages() != 800 {
		t.Errorf("messages = %d, want 800", c.Messages())
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector(2)
	c.RecordP2P(0, 1, 8)
	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "0,8\n0,0\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
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
	c.RecordCollective("allreduce", 4, 8)
	c.RecordCollective("allreduce", 4, 8)
	c.RecordCollective("alltoall", 4, 64)
	got := c.CollectiveCounts()
	if len(got) != 2 {
		t.Fatalf("got %d kinds, want 2", len(got))
	}
	if !strings.Contains(got[0], "×2") && !strings.Contains(got[1], "×2") {
		t.Errorf("allreduce count missing: %v", got)
	}
}
