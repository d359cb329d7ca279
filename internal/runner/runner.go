package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/simslot"
)

// defaultLog keeps the pool's historical stderr warning destination,
// rendered through the shared human-readable handler.
var defaultLog = obs.NewLogger(os.Stderr, "petasim", slog.LevelInfo)

// cacheVersion salts every content key. Bump it when a change to the
// performance models or experiment configurations invalidates points
// simulated by earlier builds.
// v2: the workload registry unified the Figure 8 point configurations
// with the scaling figures (step counts, GTC's BG/L mapping), so points
// simulated by v1 builds are stale.
// v3: parts render with %#v instead of %+v. %+v prefers a part's String
// method, so a machine.Spec hashed as its short display line — name,
// arch, network, procs, peak — and two specs differing only in, say,
// STREAM bandwidth collided. With user-defined machines (and whatif
// perturbations) that is no longer a theoretical hole; %#v renders the
// full field content regardless of methods.
const cacheVersion = "petasim-cache-v3"

// Key builds the content key for one schedulable point from the
// experiment identifier and the values that determine the point's
// outcome: the machine spec, the concurrency, and any config knobs that
// vary between points of the same experiment. Components are rendered
// with %#v — never a part's own String method, which could (and, for
// machine.Spec, did) hide distinguishing fields from the hash — so
// plain structs, slices and scalars hash deterministically on their
// full content. Values containing pointers (or channels or funcs) would
// key on a memory address and silently poison the cache, so Key walks
// each part with reflect and panics on the first pointer-bearing
// component.
func Key(experiment string, parts ...any) string {
	h := sha256.New()
	// Length-prefix every component so differently-split lists can never
	// collide (Key("x", "a|b") vs Key("x", "a", "b")).
	writePart := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		io.WriteString(h, s)
	}
	writePart(cacheVersion)
	writePart(experiment)
	for i, p := range parts {
		if p != nil {
			v := reflect.ValueOf(p)
			switch ClassifyKeyType(v.Type()) {
			case KeyClean:
				// Hashability is a property of the type; the verdict is
				// memoized, so warm traffic pays one map lookup here.
			case KeyPointerBearing:
				panic(fmt.Sprintf("runner: Key part %d has type %s, which contains pointers (or chans/funcs); content keys must be built from pointer-free values (addresses are not stable across runs and would poison the cache)",
					i, v.Type()))
			case KeyDynamic:
				// Interface-bearing types can only be judged per value.
				assertHashable(fmt.Sprintf("part %d", i), v, 0)
			}
		}
		writePart(fmt.Sprintf("%#v", p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyClass is the memoized Key-guard verdict for a type. It is the one
// shared definition of "pointer-bearing": the runtime reflect walk below
// and the petavet cachekey analyzer (internal/lint) both classify into
// these three verdicts, and a test in internal/lint pins that the two
// walks agree on a table of tricky types.
type KeyClass int8

const (
	// KeyClean types can never reach an address: no per-value walk.
	KeyClean KeyClass = iota
	// KeyPointerBearing types contain a pointer, chan, or func somewhere
	// — rejected outright, even when the offending container is empty,
	// so the failure does not depend on the data.
	KeyPointerBearing
	// KeyDynamic types contain interfaces, whose contents only a
	// per-value walk can judge.
	KeyDynamic
)

// String names the verdict for diagnostics and test output.
func (c KeyClass) String() string {
	switch c {
	case KeyClean:
		return "clean"
	case KeyPointerBearing:
		return "pointer-bearing"
	case KeyDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("KeyClass(%d)", int8(c))
	}
}

var keyTypeCache sync.Map // reflect.Type → KeyClass

// ClassifyKeyType reports whether values of type t are safe to hash into
// a content key: KeyClean hashes on full content, KeyPointerBearing
// would hash a memory address (Key panics on these), and KeyDynamic
// contains interfaces that only a per-value walk can judge.
func ClassifyKeyType(t reflect.Type) KeyClass {
	if c, ok := keyTypeCache.Load(t); ok {
		return c.(KeyClass)
	}
	c := classifyType(t, map[reflect.Type]bool{})
	keyTypeCache.Store(t, c)
	return c
}

// classifyType walks a type's reachable field/element types. seen
// breaks recursion through self-referential types (legal without
// pointers via slices/maps); a revisited type contributes nothing new
// on this path.
func classifyType(t reflect.Type, seen map[reflect.Type]bool) KeyClass {
	if seen[t] {
		return KeyClean
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Func:
		return KeyPointerBearing
	case reflect.Interface:
		return KeyDynamic
	case reflect.Struct:
		out := KeyClean
		for i := 0; i < t.NumField(); i++ {
			switch classifyType(t.Field(i).Type, seen) {
			case KeyPointerBearing:
				return KeyPointerBearing
			case KeyDynamic:
				out = KeyDynamic
			}
		}
		return out
	case reflect.Slice, reflect.Array:
		return classifyType(t.Elem(), seen)
	case reflect.Map:
		kc := classifyType(t.Key(), seen)
		ec := classifyType(t.Elem(), seen)
		if kc == KeyPointerBearing || ec == KeyPointerBearing {
			return KeyPointerBearing
		}
		if kc == KeyDynamic || ec == KeyDynamic {
			return KeyDynamic
		}
		return KeyClean
	}
	return KeyClean
}

// maxKeyDepth bounds the hashability walk; %+v on anything nested this
// deep would be pathological anyway.
const maxKeyDepth = 100

// assertHashable panics if v's %+v rendering would embed a memory
// address — pointers, channels, funcs, and unsafe pointers, at any
// nesting depth. path names the offending component for the panic
// message.
func assertHashable(path string, v reflect.Value, depth int) {
	if depth > maxKeyDepth {
		panic(fmt.Sprintf("runner: Key %s is nested more than %d levels deep", path, maxKeyDepth))
	}
	switch v.Kind() {
	case reflect.Invalid:
		// Untyped nil renders as "<nil>": deterministic, allowed.
	case reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Func:
		panic(fmt.Sprintf("runner: Key %s contains a %s; content keys must be built from pointer-free values (addresses are not stable across runs and would poison the cache)",
			path, v.Kind()))
	case reflect.Interface:
		assertHashable(path, v.Elem(), depth+1)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			assertHashable(path+"."+t.Field(i).Name, v.Field(i), depth+1)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			assertHashable(fmt.Sprintf("%s[%d]", path, i), v.Index(i), depth+1)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			assertHashable(path+" map key", iter.Key(), depth+1)
			assertHashable(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), depth+1)
		}
	}
}

// Job is one independently schedulable simulation point.
type Job struct {
	// Key is the content key used for result caching and in-flight
	// deduplication; empty disables both for this job.
	Key string
	// Run simulates the point. Jobs run concurrently, so Run must not
	// share mutable state with other jobs. The context is the scheduling
	// call's context (possibly shortened while the job waits for a
	// simulation slot); Run should return promptly once it is cancelled.
	Run func(ctx context.Context) (Result, error)
}

// Stats counts what a pool did. For the root pool they accumulate
// across its lifetime; for a View they cover only jobs dispatched
// through that view. Points = Simulated + MemHits + Hits + Deduped
// (failed jobs count toward Points only).
type Stats struct {
	// Points is the number of jobs dispatched (simulated or served).
	Points int64 `json:"points"`
	// Simulated is the number of jobs whose Run function executed to
	// completion.
	Simulated int64 `json:"simulated"`
	// MemHits is the number of jobs served from the in-memory tier.
	MemHits int64 `json:"mem_hits"`
	// Hits is the number of jobs served from the on-disk cache.
	Hits int64 `json:"disk_hits"`
	// Deduped is the number of jobs that shared another caller's
	// in-flight result instead of running or hitting a cache tier.
	Deduped int64 `json:"deduped"`
}

func (s Stats) String() string {
	return fmt.Sprintf("%d points (%d simulated, %d mem hits, %d disk hits, %d deduped)",
		s.Points, s.Simulated, s.MemHits, s.Hits, s.Deduped)
}

// StoreStats is one result tier's lifetime traffic, as /v1/stats and
// the petasim_store_* series report it. Pool.StoreStats nests the two
// tiers under a "tiered" node when both are configured.
type StoreStats struct {
	// Name identifies the node ("mem", "disk", "tiered").
	Name string `json:"name"`
	// Gets counts lookups; Hits the ones that found the key.
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	// Puts counts stores; PutFailures the ones that returned an error.
	Puts        int64 `json:"puts"`
	PutFailures int64 `json:"put_failures,omitempty"`
	// Backfills counts disk hits promoted into the memory tier
	// ("tiered" only).
	Backfills int64 `json:"backfills,omitempty"`
	// Len and Cap report occupancy for tiers that can count entries.
	Len int `json:"len,omitempty"`
	Cap int `json:"cap,omitempty"`
	// Tiers holds the "tiered" node's children in lookup order: mem,
	// then disk.
	Tiers []StoreStats `json:"tiers,omitempty"`
}

// tierCounters is the atomic backing of one tier's StoreStats.
type tierCounters struct {
	gets, hits, puts, putFailures atomic.Int64
}

func (c *tierCounters) get(ok bool) {
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
}

func (c *tierCounters) put(err error) {
	c.puts.Add(1)
	if err != nil {
		c.putFailures.Add(1)
	}
}

func (c *tierCounters) stats(name string) StoreStats {
	return StoreStats{
		Name: name,
		Gets: c.gets.Load(), Hits: c.hits.Load(),
		Puts: c.puts.Load(), PutFailures: c.putFailures.Load(),
	}
}

// Served records how a job was satisfied: simulated fresh, served from
// the memory or disk tier, or shared with another caller's in-flight
// simulation. Stream events carry it as per-point provenance.
type Served int

const (
	ServedSim Served = iota
	ServedMem
	ServedDisk
	ServedDedup
)

// String renders the provenance as the stable wire token the streaming
// endpoints emit.
func (s Served) String() string {
	switch s {
	case ServedMem:
		return "mem"
	case ServedDisk:
		return "disk"
	case ServedDedup:
		return "dedup"
	default:
		return "simulated"
	}
}

// counters is the atomic backing store of Stats: every dispatched job,
// and the successful ones by how they were served.
type counters struct {
	points atomic.Int64
	served [ServedDedup + 1]atomic.Int64
}

func (c *counters) add(via Served, ok bool) {
	c.points.Add(1)
	if ok {
		c.served[via].Add(1)
	}
}

func (c *counters) stats() Stats {
	return Stats{
		Points:    c.points.Load(),
		Simulated: c.served[ServedSim].Load(),
		MemHits:   c.served[ServedMem].Load(),
		Hits:      c.served[ServedDisk].Load(),
		Deduped:   c.served[ServedDedup].Load(),
	}
}

// Pool fans jobs out across a fixed set of worker goroutines, serving
// repeated points from its two result tiers: an optional in-memory LRU
// (Mem) in front of an optional on-disk Cache. Concurrent lookups of
// the same key are deduplicated in flight, so a pool shared by many
// concurrent Run calls — the petasim serve scenario — simulates each
// point exactly once no matter how many requests race on it.
//
// The zero value is a serial, uncached pool ready to use. All methods
// are safe for concurrent use.
type Pool struct {
	// Workers caps concurrency twice over: each Run call starts at most
	// Workers worker goroutines, and at most Workers simulations are in
	// flight at once across every Run call sharing this pool and its
	// views — the backpressure that keeps N concurrent cold requests
	// from multiplying compute. Values below 1 run serially; values
	// above the job count are clamped per call.
	Workers int
	// Cache, if non-nil, is the persistent tier: consulted after Mem,
	// written after a simulated point completes. A failed write is a
	// warning (once per pool), never a job failure — the simulated
	// result is still returned, the run just loses persistence.
	Cache *Cache
	// Mem, if non-nil, is the fast tier: consulted first, filled on
	// disk hits and simulated points.
	Mem *MemCache

	stats      counters
	parent     *Pool // non-nil for views; counts also flow up
	flight     *flightGroup
	flightOnce sync.Once
	sem        chan struct{} // global simulation slots, shared with views
	semOnce    sync.Once
	putWarn    sync.Once
}

// StoreStats reports the result tiers' lifetime traffic: the one
// configured tier's node, or a "tiered" node over [mem, disk] when both
// are. Every lookup consults mem first, so the tiered node's gets are
// mem's, its hits are either tier's, every disk hit is a backfill into
// mem, and every write reaches disk once. ok is false for an uncached
// pool.
func (p *Pool) StoreStats() (StoreStats, bool) {
	switch {
	case p.Mem != nil && p.Cache != nil:
		mem, disk := p.Mem.Stats(), p.Cache.Stats()
		return StoreStats{
			Name: "tiered",
			Gets: mem.Gets, Hits: mem.Hits + disk.Hits,
			Puts: disk.Puts, PutFailures: disk.PutFailures,
			Backfills: disk.Hits,
			Tiers:     []StoreStats{mem, disk},
		}, true
	case p.Mem != nil:
		return p.Mem.Stats(), true
	case p.Cache != nil:
		return p.Cache.Stats(), true
	}
	return StoreStats{}, false
}

// Stats returns the totals accumulated by this pool (for a View, by
// that view only).
func (p *Pool) Stats() Stats { return p.stats.stats() }

// View returns a pool that shares p's worker count, result tiers, and
// in-flight deduplication group, but accumulates its
// own Stats. A long-running server gives each request a view of one
// shared pool: the request observes exactly what was simulated or
// served on its behalf, while the root pool keeps lifetime totals
// (every count recorded through a view is added to its parents too).
func (p *Pool) View() *Pool {
	return &Pool{
		Workers: p.Workers, Cache: p.Cache, Mem: p.Mem,
		flight: p.flightFor(), sem: p.semFor(), parent: p,
	}
}

// flightFor lazily creates the dedup group so the zero Pool works.
func (p *Pool) flightFor() *flightGroup {
	p.flightOnce.Do(func() {
		if p.flight == nil {
			p.flight = newFlightGroup()
		}
	})
	return p.flight
}

// semFor lazily creates the global simulation semaphore (Workers slots,
// minimum one) so the zero Pool works.
func (p *Pool) semFor() chan struct{} {
	p.semOnce.Do(func() {
		if p.sem == nil {
			n := p.Workers
			if n < 1 {
				n = 1
			}
			p.sem = make(chan struct{}, n)
		}
	})
	return p.sem
}

// tally records one dispatched job on this pool and every ancestor.
func (p *Pool) tally(via Served, ok bool) {
	for q := p; q != nil; q = q.parent {
		q.stats.add(via, ok)
	}
}

// warnPutFailure reports the first failed cache write on the root pool
// and stays silent afterwards: on a full or read-only disk every write
// fails the same way, and one warning per pool is signal enough.
func (p *Pool) warnPutFailure(err error) {
	root := p
	for root.parent != nil {
		root = root.parent
	}
	root.putWarn.Do(func() {
		defaultLog.Warn(fmt.Sprintf("runner: cache write failed, continuing without persisting results: %v", err))
	})
}

// Run executes the jobs and returns their results in job order,
// regardless of worker count or host scheduling — output assembled from
// the slice is byte-identical to a serial run.
//
// Cancelling ctx stops new jobs from being scheduled promptly; in-flight
// jobs are waited for (their Run functions observe the same ctx), and
// Run returns whatever completed alongside ctx's error. Failures no
// longer discard the batch either: the first failure stops new jobs from
// starting, and every per-job error is returned joined (errors.Join)
// with the results slice still holding each job that completed. A failed
// or skipped job's slot is the zero Result; the slice is only fully
// populated when the returned error is nil.
//
// Run may be called concurrently from many goroutines on one pool (or
// on views of one pool); the cache tiers and the in-flight dedup group
// are shared, so overlapping job sets simulate each key once.
func (p *Pool) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	ctx, sp := obs.Start(ctx, "runner.run")
	sp.SetInt("jobs", int64(len(jobs)))
	defer sp.End()
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	p.dispatch(ctx, jobs, true, func(i int, r Result, _ Served, err error) {
		results[i], errs[i] = r, err
	})
	// Join in job order (then the cancellation cause, if any), so the
	// aggregate error message is deterministic for a given failure set.
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return results, err
	}
	return results, nil
}

// Event is one completed job delivered by Stream: the job's index in the
// submitted slice, its result or error, and the served-from provenance.
type Event struct {
	// Index is the job's position in the Stream call's jobs slice.
	Index int
	// Result is the job's result; zero when Err is non-nil.
	Result Result
	// Served reports how the point was satisfied: freshly simulated,
	// memory tier, disk tier, or deduplicated against another caller's
	// in-flight simulation.
	Served Served
	// Err is the job's own failure, if any. Unlike Run, a streaming
	// batch keeps going after a failed point — each event stands alone.
	Err error
}

// Stream executes the jobs and delivers one Event per completed job, in
// completion order, as each point finishes — the incremental form of
// Run for consumers that want results as they happen (the NDJSON
// endpoint, progress UIs). The channel is closed once every scheduled
// job has been delivered or ctx is cancelled; after cancellation the
// remaining jobs are never started. A failed job is an Event carrying
// its error; unlike Run, failures do not stop the rest of the batch.
//
// Callers that stop consuming must cancel ctx, or workers block
// forever on the undelivered events.
func (p *Pool) Stream(ctx context.Context, jobs []Job) <-chan Event {
	ctx, sp := obs.Start(ctx, "runner.stream")
	sp.SetInt("jobs", int64(len(jobs)))
	out := make(chan Event)
	go func() {
		defer close(out)
		defer sp.End()
		p.dispatch(ctx, jobs, false, func(i int, r Result, via Served, err error) {
			select {
			case out <- Event{Index: i, Result: r, Served: via, Err: err}:
			case <-ctx.Done():
			}
		})
	}()
	return out
}

// dispatch is the scheduling core shared by Run and Stream: fan the
// jobs across Workers goroutines, calling emit once per executed job
// (from worker goroutines — emit must be safe for disjoint-index
// concurrent use). Cancelling ctx stops feeding new jobs; when failFast
// is set, the first failure does too (jobs already fed are skipped
// without an emit).
func (p *Pool) dispatch(ctx context.Context, jobs []Job, failFast bool, emit func(i int, r Result, via Served, err error)) {
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil || (failFast && failed.Load()) {
					continue
				}
				r, via, err := p.runJob(ctx, jobs[i])
				if err != nil && cancellation(err) && ctx.Err() != nil {
					// The job died of this call's own cancellation; the
					// caller sees ctx.Err once, not once per worker. A
					// genuine simulation failure that merely races with
					// the cancel is still emitted.
					continue
				}
				p.tally(via, err == nil)
				if err != nil {
					failed.Store(true)
				}
				emit(i, r, via, err)
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

// runJob wraps serveJob in a span carrying the point's provenance: on a
// traced request every point shows where it was served from; untraced
// (the steady-state CLI sweep) this is one nil check.
func (p *Pool) runJob(ctx context.Context, j Job) (Result, Served, error) {
	ctx, sp := obs.Start(ctx, "runner.point")
	r, via, err := p.serveJob(ctx, j)
	if sp != nil {
		sp.SetAttr("served", via.String())
		if len(j.Key) >= 12 {
			sp.SetAttr("key", j.Key[:12])
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return r, via, err
}

// serveJob serves one job from the result tiers, another caller's
// in-flight lookup, or a fresh simulation — in that order.
func (p *Pool) serveJob(ctx context.Context, j Job) (Result, Served, error) {
	if j.Key == "" {
		r, err := p.simulate(ctx, j)
		return r, ServedSim, err
	}
	if r, via, ok := p.lookup(j.Key); ok {
		r.Cached = true
		return r, via, nil
	}
	via := ServedSim
	r, dup, err := p.flightFor().do(ctx, j.Key, func(ctx context.Context) (Result, error) {
		// Re-check the tiers under the flight: a leader that just
		// finished this key has already filled them.
		if r, v, ok := p.lookup(j.Key); ok {
			via = v
			return r, nil
		}
		r, err := p.simulate(ctx, j)
		if err != nil {
			return Result{}, err
		}
		p.store(j.Key, r)
		return r, nil
	})
	if err != nil {
		return Result{}, via, err
	}
	if dup {
		via = ServedDedup
	}
	if via == ServedMem || via == ServedDisk {
		r.Cached = true
	}
	return r, via, nil
}

// lookup consults the memory tier, then the disk tier; a disk hit is
// promoted into memory so the next lookup stops at the fast tier.
func (p *Pool) lookup(key string) (Result, Served, bool) {
	if p.Mem != nil {
		if r, ok := p.Mem.Get(key); ok {
			return r, ServedMem, true
		}
	}
	if p.Cache != nil {
		if r, ok := p.Cache.Get(key); ok {
			if p.Mem != nil {
				p.Mem.Put(key, r)
			}
			return r, ServedDisk, true
		}
	}
	return Result{}, ServedSim, false
}

// store writes a simulated result through both tiers. A result that
// simulated successfully is never thrown away because the disk is full
// or read-only: a failed disk write only warns.
func (p *Pool) store(key string, r Result) {
	if p.Mem != nil {
		p.Mem.Put(key, r)
	}
	if p.Cache != nil {
		if err := p.Cache.Put(key, r); err != nil {
			p.warnPutFailure(err)
		}
	}
}

// simulate runs the job's simulation under a global slot, so the total
// number of in-flight simulations never exceeds Workers no matter how
// many Run calls (or server requests) race on the pool. Cache lookups
// and in-flight waits never hold a slot — warm traffic is not queued
// behind cold traffic — and a cancelled caller stops queueing for one.
func (p *Pool) simulate(ctx context.Context, j Job) (Result, error) {
	sem := p.semFor()
	ctx, sp := obs.Start(ctx, "runner.simulate")
	defer sp.End()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	defer func() { <-sem }()
	// Tell the simulation core how much host parallelism this job may
	// spend on intra-world sharding: its own slot plus whatever is idle
	// at dispatch. A saturated pool runs each world single-sharded; a
	// lone big world fans out. Shard count never changes virtual-time
	// results (the determinism stress test pins this), so a dynamic
	// budget cannot perturb artifacts.
	budget := 1 + cap(sem) - len(sem)
	sp.SetInt("slot_budget", int64(budget))
	ctx = simslot.With(ctx, budget)
	return j.Run(ctx)
}

// SlotStats reports the global simulation semaphore's occupancy: busy
// slots (simulations in flight right now) out of total. Sampled by the
// /metrics pool gauges.
func (p *Pool) SlotStats() (busy, total int) {
	sem := p.semFor()
	return len(sem), cap(sem)
}
