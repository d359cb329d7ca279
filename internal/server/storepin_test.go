package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// pinnedStoreSection is the /v1/stats store section after the traffic
// in TestStoreSectionsPinned, as the indented encoder nests it.
const pinnedStoreSection = `{
    "name": "tiered",
    "gets": 9,
    "hits": 3,
    "puts": 3,
    "put_failures": 1,
    "backfills": 1,
    "tiers": [
      {
        "name": "mem",
        "gets": 9,
        "hits": 2,
        "puts": 4,
        "len": 2,
        "cap": 2
      },
      {
        "name": "disk",
        "gets": 7,
        "hits": 1,
        "puts": 3,
        "put_failures": 1
      }
    ]
  }`

// pinnedStoreSamples are the petasim_store_* sample lines of /metrics
// after the same traffic.
const pinnedStoreSamples = `petasim_store_backfills_total{store="tiered"} 1
petasim_store_backfills_total{store="tiered/mem"} 0
petasim_store_backfills_total{store="tiered/disk"} 0
petasim_store_entries{store="tiered"} 0
petasim_store_entries{store="tiered/mem"} 2
petasim_store_entries{store="tiered/disk"} 0
petasim_store_gets_total{store="tiered"} 9
petasim_store_gets_total{store="tiered/mem"} 9
petasim_store_gets_total{store="tiered/disk"} 7
petasim_store_hits_total{store="tiered"} 3
petasim_store_hits_total{store="tiered/mem"} 2
petasim_store_hits_total{store="tiered/disk"} 1
petasim_store_put_failures_total{store="tiered"} 1
petasim_store_put_failures_total{store="tiered/mem"} 0
petasim_store_put_failures_total{store="tiered/disk"} 1
petasim_store_puts_total{store="tiered"} 3
petasim_store_puts_total{store="tiered/mem"} 4
petasim_store_puts_total{store="tiered/disk"} 3`

// TestStoreSectionsPinned drives one fixed traffic sequence through a
// two-tier pool — cold points, a memory repeat, a disk-only hit that is
// promoted into memory, and a write into a deleted cache directory —
// and pins the exact /v1/stats store section and petasim_store_*
// samples the server renders from it.
func TestStoreSectionsPinned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 1, Cache: cache, Mem: runner.NewMemCache(2)}
	ts := httptest.NewServer(New(experiments.Options{Quick: true, MaxProcs: 64, Runner: pool}))
	t.Cleanup(ts.Close)
	run := func(keys ...string) {
		t.Helper()
		jobs := make([]runner.Job, len(keys))
		for i, k := range keys {
			jobs[i] = runner.Job{Key: k, Run: func(context.Context) (runner.Result, error) {
				return runner.Result{Experiment: "store", Output: k}, nil
			}}
		}
		if _, err := pool.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	run("a", "b")
	run("a")
	other, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put("c", runner.Result{Experiment: "store", Output: "c"}); err != nil {
		t.Fatal(err)
	}
	run("c")
	run("c")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	run("d")

	_, body := get(t, ts.URL+"/v1/stats")
	var st struct {
		Store json.RawMessage `json:"store"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := string(st.Store); got != pinnedStoreSection {
		t.Fatalf("/v1/stats store section\n got %s\nwant %s", got, pinnedStoreSection)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	var lines []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "petasim_store_") {
			lines = append(lines, line)
		}
	}
	if got := strings.Join(lines, "\n"); got != pinnedStoreSamples {
		t.Fatalf("petasim_store_* samples\n got:\n%s\nwant:\n%s", got, pinnedStoreSamples)
	}
}
