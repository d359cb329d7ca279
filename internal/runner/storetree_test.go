package runner

import (
	"context"
	"io"
	"log/slog"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

// redirectPoolLog points the pool's package logger at w for one test,
// restoring it afterwards.
func redirectPoolLog(t *testing.T, w io.Writer) {
	t.Helper()
	old := defaultLog
	defaultLog = slog.New(slog.NewTextHandler(w, nil))
	t.Cleanup(func() { defaultLog = old })
}

// TestStoreStatsTreeUnderFixedTraffic pins every counter of the
// store-stats tree a two-tier pool reports after one fixed traffic
// sequence: cold points, a memory repeat, a disk-only hit that is
// promoted into memory, and a write into a deleted cache directory.
// /v1/stats and the petasim_store_* series render this tree verbatim.
func TestStoreStatsTreeUnderFixedTraffic(t *testing.T) {
	redirectPoolLog(t, io.Discard)
	cache := testCache(t)
	p := &Pool{Workers: 1, Cache: cache, Mem: NewMemCache(2)}
	var execs atomic.Int64
	run := func(keys ...string) {
		t.Helper()
		jobs := make([]Job, len(keys))
		for i, k := range keys {
			jobs[i] = keyedJob(k, &execs)
		}
		if _, err := p.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	// Cold: each point misses both tiers twice (before and under the
	// flight), then writes through to both.
	run("a", "b")
	// A memory repeat.
	run("a")
	// A disk-only entry, written through a second handle on the same
	// directory: the hit is promoted into memory (evicting b), and the
	// repeat is served from there.
	other, err := OpenCache(cache.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put("c", Result{Experiment: "store", Output: "c"}); err != nil {
		t.Fatal(err)
	}
	run("c")
	run("c")
	// A cold point whose disk write fails.
	if err := os.RemoveAll(cache.Dir()); err != nil {
		t.Fatal(err)
	}
	run("d")

	got, ok := p.StoreStats()
	if !ok {
		t.Fatal("two-tier pool reports no store")
	}
	want := StoreStats{
		Name: "tiered", Gets: 9, Hits: 3, Puts: 3, PutFailures: 1, Backfills: 1,
		Tiers: []StoreStats{
			{Name: "mem", Gets: 9, Hits: 2, Puts: 4, Len: 2, Cap: 2},
			{Name: "disk", Gets: 7, Hits: 1, Puts: 3, PutFailures: 1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store stats\n got %+v\nwant %+v", got, want)
	}
	if s := p.Stats(); s != (Stats{Points: 6, Simulated: 3, MemHits: 2, Hits: 1}) {
		t.Fatalf("pool stats %v", s)
	}
	if execs.Load() != 3 {
		t.Fatalf("%d executions, want 3", execs.Load())
	}
}

// TestStoreStatsSingleTier pins the tree's shape when only one tier is
// configured: that tier's node alone, and no tree for an uncached pool.
func TestStoreStatsSingleTier(t *testing.T) {
	var execs atomic.Int64
	jobs := []Job{keyedJob("a", &execs), keyedJob("a", &execs)}
	for _, tc := range []struct {
		pool *Pool
		want StoreStats
	}{
		{&Pool{Mem: NewMemCache(4)}, StoreStats{Name: "mem", Gets: 3, Hits: 1, Puts: 1, Len: 1, Cap: 4}},
		{&Pool{Cache: testCache(t)}, StoreStats{Name: "disk", Gets: 3, Hits: 1, Puts: 1, Len: 1}},
	} {
		if _, err := tc.pool.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if got, ok := tc.pool.StoreStats(); !ok || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("store stats %+v (ok=%v), want %+v", got, ok, tc.want)
		}
	}
	if _, ok := (&Pool{}).StoreStats(); ok {
		t.Fatal("uncached pool reports a store")
	}
}
