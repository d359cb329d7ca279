package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keyedJob returns a job under the given key whose executions are
// counted in execs.
func keyedJob(key string, execs *atomic.Int64) Job {
	return Job{Key: key, Run: func(context.Context) (Result, error) {
		execs.Add(1)
		return Result{Experiment: "store", Output: key}, nil
	}}
}

func TestPutFailureWarnsOnceAndContinues(t *testing.T) {
	var log bytes.Buffer
	redirectPoolLog(t, &log)
	cache := testCache(t)
	// Destroy the cache directory after opening: every Put now fails the
	// way a full or read-only disk would.
	if err := os.RemoveAll(cache.Dir()); err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: 4, Cache: cache}
	var execs atomic.Int64
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = keyedJob(fmt.Sprintf("k%d", i), &execs)
	}
	results, err := p.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("run failed on an unwritable cache: %v", err)
	}
	if len(results) != 8 || execs.Load() != 8 {
		t.Fatalf("%d results, %d executions; simulated points were discarded", len(results), execs.Load())
	}
	for i, r := range results {
		if r.Output != fmt.Sprintf("k%d", i) {
			t.Fatalf("result %d carries %q", i, r.Output)
		}
	}
	warnings := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(warnings) != 1 || log.Len() == 0 {
		t.Fatalf("%d warnings, want exactly 1: %q", len(warnings), log.String())
	}
	if !strings.Contains(warnings[0], "cache write failed") {
		t.Fatalf("warning %q does not describe the failed write", warnings[0])
	}
	if s := p.Stats(); s.Simulated != 8 {
		t.Fatalf("stats %v, want 8 simulated", s)
	}
}

func TestPutFailureDefaultWarnGoesToStderrOnly(t *testing.T) {
	// Through the default stderr logger the pool must still not fail
	// the job.
	cache := testCache(t)
	if err := os.RemoveAll(cache.Dir()); err != nil {
		t.Fatal(err)
	}
	p := &Pool{Cache: cache}
	var execs atomic.Int64
	if _, err := p.Run(context.Background(), []Job{keyedJob("k", &execs)}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestMemTierServesRepeats(t *testing.T) {
	p := &Pool{Workers: 2, Mem: NewMemCache(64)}
	var execs atomic.Int64
	jobs := []Job{keyedJob("a", &execs), keyedJob("b", &execs)}
	for run := 0; run < 3; run++ {
		results, err := p.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if wantCached := run > 0; results[0].Cached != wantCached {
			t.Fatalf("run %d: Cached=%v", run, results[0].Cached)
		}
	}
	if execs.Load() != 2 {
		t.Fatalf("%d executions, want 2 (repeats served from memory)", execs.Load())
	}
	s := p.Stats()
	if s.Points != 6 || s.Simulated != 2 || s.MemHits != 4 || s.Hits != 0 {
		t.Fatalf("stats %v, want 6 points, 2 simulated, 4 mem hits", s)
	}
}

func TestDiskHitPromotedToMemTier(t *testing.T) {
	cache := testCache(t)
	seed := &Pool{Cache: cache}
	var execs atomic.Int64
	if _, err := seed.Run(context.Background(), []Job{keyedJob("a", &execs)}); err != nil {
		t.Fatal(err)
	}

	p := &Pool{Cache: cache, Mem: NewMemCache(64)}
	for run := 0; run < 2; run++ {
		if _, err := p.Run(context.Background(), []Job{keyedJob("a", &execs)}); err != nil {
			t.Fatal(err)
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("%d executions, want 1", execs.Load())
	}
	s := p.Stats()
	if s.Hits != 1 || s.MemHits != 1 {
		t.Fatalf("stats %v, want 1 disk hit then 1 mem hit", s)
	}
}

func TestTieredGetBackfillsEarlierTiers(t *testing.T) {
	cache := testCache(t)
	if err := cache.Put("k", Result{Output: "v"}); err != nil {
		t.Fatal(err)
	}
	p := &Pool{Cache: cache, Mem: NewMemCache(64)}
	r, via, ok := p.lookup("k")
	if !ok || r.Output != "v" {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	if via != ServedDisk {
		t.Fatalf("first hit served %v, want disk", via)
	}
	// The disk hit must have backfilled the memory tier.
	if _, ok := p.Mem.Get("k"); !ok {
		t.Fatal("disk hit did not backfill the memory tier")
	}
	if _, via, _ := p.lookup("k"); via != ServedMem {
		t.Fatalf("second hit served %v, want mem", via)
	}
}

func TestTieredPutWritesThrough(t *testing.T) {
	p := &Pool{Cache: testCache(t), Mem: NewMemCache(64)}
	var execs atomic.Int64
	if _, err := p.Run(context.Background(), []Job{keyedJob("k", &execs)}); err != nil {
		t.Fatal(err)
	}
	if r, ok := p.Mem.Get("k"); !ok || r.Output != "k" {
		t.Fatalf("mem tier missing the written entry (%+v, %v)", r, ok)
	}
	if r, ok := p.Cache.Get("k"); !ok || r.Output != "k" {
		t.Fatalf("disk tier missing the written entry (%+v, %v)", r, ok)
	}
	st, _ := p.StoreStats()
	if st.Name != "tiered" || len(st.Tiers) != 2 || st.Puts != 1 {
		t.Fatalf("tiered stats %+v", st)
	}
}

func TestMemAndDiskStoreProvenance(t *testing.T) {
	mem := &Pool{Mem: NewMemCache(8)}
	disk := &Pool{Cache: testCache(t)}
	for _, tc := range []struct {
		p    *Pool
		want Served
	}{{mem, ServedMem}, {disk, ServedDisk}} {
		tc.p.store("k", Result{Output: "v"})
		if _, via, ok := tc.p.lookup("k"); !ok || via != tc.want {
			t.Fatalf("hit served %v, want %v", via, tc.want)
		}
	}
}

func TestSingleflightDedupsConcurrentIdenticalJobs(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int64
	slow := Job{Key: "slow", Run: func(context.Context) (Result, error) {
		execs.Add(1)
		close(started)
		<-release
		return Result{Output: "slow"}, nil
	}}

	p := &Pool{Workers: 1, Mem: NewMemCache(64)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(context.Background(), []Job{slow}); err != nil {
			t.Errorf("leader run: %v", err)
		}
	}()
	<-started // the leader is inside Run and holds the flight
	wg.Add(1)
	go func() {
		defer wg.Done()
		results, err := p.Run(context.Background(), []Job{{Key: "slow", Run: func(context.Context) (Result, error) {
			execs.Add(1)
			return Result{Output: "dup"}, nil
		}}})
		if err != nil {
			t.Errorf("dup run: %v", err)
		} else if results[0].Output != "slow" {
			t.Errorf("dup got %q, want the leader's result", results[0].Output)
		}
	}()
	// Release the leader only once the duplicate is provably waiting on
	// the in-flight call, so it must share the leader's result.
	flight := p.flightFor()
	for {
		flight.mu.Lock()
		c := flight.m["slow"]
		var waiting int64
		if c != nil {
			waiting = c.waiters.Load()
		}
		flight.mu.Unlock()
		if waiting >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if execs.Load() != 1 {
		t.Fatalf("%d executions, want 1 (singleflight)", execs.Load())
	}
	s := p.Stats()
	if s.Simulated != 1 || s.Deduped != 1 {
		t.Fatalf("stats %v, want 1 simulated + 1 deduped", s)
	}
}

// TestConcurrentRunsSharedPool is the serve scenario: many goroutines
// Run overlapping job sets through views of one pool (shared memory
// tier, disk cache, and flight group) under -race. Every unique key
// must simulate exactly once, and the views' stats must add up to the
// root pool's.
func TestConcurrentRunsSharedPool(t *testing.T) {
	const (
		goroutines = 8
		keys       = 16
	)
	root := &Pool{Workers: 4, Cache: testCache(t), Mem: NewMemCache(256)}
	execs := make([]atomic.Int64, keys)

	viewStats := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view := root.View()
			jobs := make([]Job, keys)
			for i := range jobs {
				jobs[i] = keyedJob(fmt.Sprintf("k%d", i), &execs[i])
			}
			results, err := view.Run(context.Background(), jobs)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, r := range results {
				if r.Output != fmt.Sprintf("k%d", i) {
					t.Errorf("goroutine %d result %d carries %q", g, i, r.Output)
				}
			}
			viewStats[g] = view.Stats()
		}(g)
	}
	wg.Wait()

	for i := range execs {
		if n := execs[i].Load(); n != 1 {
			t.Errorf("key k%d simulated %d times, want exactly 1", i, n)
		}
	}
	var sum Stats
	for _, s := range viewStats {
		sum.Points += s.Points
		sum.Simulated += s.Simulated
		sum.MemHits += s.MemHits
		sum.Hits += s.Hits
		sum.Deduped += s.Deduped
	}
	got := root.Stats()
	if sum != got {
		t.Fatalf("view stats sum %v != pool stats %v", sum, got)
	}
	if got.Points != goroutines*keys || got.Simulated != keys {
		t.Fatalf("pool stats %v, want %d points with %d simulated", got, goroutines*keys, keys)
	}
	if got.Simulated+got.MemHits+got.Hits+got.Deduped != got.Points {
		t.Fatalf("stats do not add up: %v", got)
	}
}

// TestWorkersBoundSimulationsGlobally: Workers caps in-flight
// simulations across concurrent Run calls sharing one pool, not just
// within each call — the backpressure a server needs under a burst of
// distinct cold queries.
func TestWorkersBoundSimulationsGlobally(t *testing.T) {
	const (
		bound      = 2
		goroutines = 6
		jobsPer    = 4
	)
	root := &Pool{Workers: bound}
	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs := make([]Job, jobsPer)
			for i := range jobs {
				jobs[i] = Job{Key: fmt.Sprintf("g%d-j%d", g, i), Run: func(context.Context) (Result, error) {
					n := inFlight.Add(1)
					defer inFlight.Add(-1)
					for {
						m := maxInFlight.Load()
						if n <= m || maxInFlight.CompareAndSwap(m, n) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					return Result{}, nil
				}}
			}
			if _, err := root.View().Run(context.Background(), jobs); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > bound {
		t.Fatalf("%d simulations in flight at once across Run calls, want <= %d", got, bound)
	}
	if s := root.Stats(); s.Simulated != goroutines*jobsPer {
		t.Fatalf("stats %v, want %d simulated", s, goroutines*jobsPer)
	}
}

func TestKeyRejectsPointerBearingParts(t *testing.T) {
	mustPanic := func(name string, part any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Key accepted a pointer-bearing part", name)
			}
		}()
		Key("exp", part)
	}
	x := 7
	type inner struct{ P *int }
	type outer struct{ I inner }
	mustPanic("bare pointer", &x)
	mustPanic("nil pointer", (*int)(nil))
	mustPanic("nested struct pointer", outer{inner{&x}})
	mustPanic("slice of pointers", []*int{&x})
	mustPanic("map with pointer value", map[string]*int{"a": &x})
	mustPanic("func", func() {})
	mustPanic("chan", make(chan int))
	mustPanic("interface wrapping pointer", []any{"ok", &x})
	// Pointer-bearing types are rejected even when the container is
	// empty: the verdict is a property of the type, so the failure
	// cannot depend on the data.
	mustPanic("empty map with pointer values", map[string]*int{})
	mustPanic("empty slice of pointers", []*int{})
	// The type verdict is memoized; a second call must still reject.
	mustPanic("memoized dirty type", outer{inner{&x}})
}

func TestKeyAcceptsPointerFreeComposites(t *testing.T) {
	type spec struct {
		Name  string
		Procs int
		Knobs []float64
		Tags  map[string]int
	}
	got := Key("exp", spec{"Bassi", 64, []float64{1, 2}, map[string]int{"a": 1}}, nil, [2]int{3, 4})
	if again := Key("exp", spec{"Bassi", 64, []float64{1, 2}, map[string]int{"a": 1}}, nil, [2]int{3, 4}); again != got {
		t.Fatal("identical pointer-free parts hashed differently")
	}
}

func TestMemCacheNonPositiveCapacityDisables(t *testing.T) {
	// The CLI documents "-mem-cache 0 disables"; the constructor must
	// agree so embedders forwarding a user's 0 (or a negative
	// misconfiguration) get no tier, not a silent default one.
	for _, capacity := range []int{0, -1} {
		if m := NewMemCache(capacity); m != nil {
			t.Fatalf("NewMemCache(%d) = %v, want nil (disabled tier)", capacity, m)
		}
	}
}

func TestMemCacheEvictsLeastRecentlyUsed(t *testing.T) {
	// Capacities below 4×shards collapse to one shard, so eviction
	// order is exact.
	m := NewMemCache(2)
	if m.Cap() != 2 {
		t.Fatalf("cap %d, want 2", m.Cap())
	}
	m.Put("a", Result{Output: "a"})
	m.Put("b", Result{Output: "b"})
	m.Get("a") // a is now most recently used
	m.Put("c", Result{Output: "c"})
	if _, ok := m.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if r, ok := m.Get(k); !ok || r.Output != k {
			t.Fatalf("entry %q missing after eviction of b", k)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len %d, want 2", m.Len())
	}
}

func TestMemCacheUpdateMovesToFront(t *testing.T) {
	m := NewMemCache(2)
	m.Put("a", Result{Output: "a"})
	m.Put("b", Result{Output: "b"})
	m.Put("a", Result{Output: "a2"}) // update, not insert
	if m.Len() != 2 {
		t.Fatalf("len %d after update, want 2", m.Len())
	}
	m.Put("c", Result{Output: "c"})
	if _, ok := m.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if r, _ := m.Get("a"); r.Output != "a2" {
		t.Fatalf("update lost: %q", r.Output)
	}
}

func TestMemCacheShardedConcurrentAccess(t *testing.T) {
	m := NewMemCache(DefaultMemCapacity)
	if len(m.shards) != memShardCount {
		t.Fatalf("%d shards, want %d", len(m.shards), memShardCount)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i)
				m.Put(key, Result{Procs: i})
				if r, ok := m.Get(key); ok && r.Procs != i {
					t.Errorf("key %s holds %d", key, r.Procs)
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 200 {
		t.Fatalf("len %d, want 200", m.Len())
	}
}
