package apps

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/topology"
)

// Workload is one of the paper's applications as a first-class, sweepable
// scenario: everything an experiment driver needs to run the app at an
// arbitrary (machine, concurrency) point without knowing its config type.
// The six applications register themselves at init time; importing
// repro/internal/apps/all (blank) populates the registry.
type Workload interface {
	// Name is the registry key and the display name used in figures
	// ("GTC", "Cactus", ...). It may differ from Meta().Name, which
	// follows Table 2's typography.
	Name() string
	// Meta is the application's Table 2 row.
	Meta() Meta
	// DefaultConfig returns the paper's canonical scaling-study
	// configuration for one (machine, concurrency) point, with the
	// computed-on (actual) problem sizes bounded so host time stays sane
	// at extreme concurrency. The result is the app's own Config type;
	// callers that tweak knobs type-assert it, everyone else passes it
	// straight back to Run.
	DefaultConfig(spec machine.Spec, procs int) any
	// Run executes one point under sim with cfg, a value obtained from
	// DefaultConfig (possibly modified). Cancelling ctx aborts the
	// simulation at its next communication operation and returns ctx's
	// error; it never changes the result of a run that completes.
	Run(ctx context.Context, sim simmpi.Config, cfg any) (*simmpi.Report, error)
}

// Mapper is the optional preferred-mapping hook: a workload that benefits
// from an explicit rank placement on some platform (GTC's §3.1
// torus-aligned BG/L mapping) returns it here.
type Mapper interface {
	PreferredMapping(spec machine.Spec, procs int, cfg any) (topology.Mapping, bool)
}

// SpecPreparer is the optional platform-variant hook: a workload whose
// published results came from a different installation of a platform
// substitutes it here (Cactus's Phoenix data are from the Cray X1).
type SpecPreparer interface {
	PrepareSpec(spec machine.Spec) machine.Spec
}

// TopoConfigurer is the optional hook for the Figure 1 communication-
// topology capture: a downsized configuration that still exercises the
// app's full communication pattern.
type TopoConfigurer interface {
	TopoConfig(spec machine.Spec, procs int) any
}

// Study is one optimisation-ablation experiment (§3.1, §8.1): a ladder of
// configurations run at a single (machine, concurrency) point, reported
// as speedups over the first (baseline) variant.
type Study struct {
	// ID is the stable experiment identifier ("gtcopt", "amropt",
	// "vnode") used for CLI dispatch and result-cache keys.
	ID string
	// Title is the rendered table heading.
	Title string
	// Machine and Procs locate the study's single simulation point.
	Machine machine.Spec
	Procs   int
	// Labels name the variants, baseline first.
	Labels []string
	// Wall simulates variant i under ctx and returns its wall-clock
	// seconds.
	Wall func(ctx context.Context, i int) (float64, error)
}

// Studier is the optional interface for workloads that define
// optimisation studies.
type Studier interface {
	Studies(quick bool) []Study
}

var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload to the registry, panicking on duplicates —
// registration happens at init time, so a duplicate is a programming
// error, not a runtime condition.
func Register(w Workload) {
	regMu.Lock()
	defer regMu.Unlock()
	key := normalize(w.Name())
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("apps: workload %q registered twice", w.Name()))
	}
	registry[key] = w
}

// Workloads returns every registered workload sorted by Name, so registry
// iteration order is deterministic across processes and registration
// orders.
func Workloads() []Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns the sorted display names of the registered workloads.
func Names() []string {
	ws := Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	return names
}

// Lookup finds a workload by forgiving name: case-insensitive, ignoring
// punctuation ("gtc", "GTC", "beam-beam3d" all resolve).
func Lookup(name string) (Workload, error) {
	regMu.RLock()
	w, ok := registry[normalize(name)]
	regMu.RUnlock()
	if ok {
		return w, nil
	}
	return nil, fmt.Errorf("apps: unknown workload %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// normalize folds a name into a registry key, with the same forgiving
// rule the machine selectors use.
func normalize(name string) string { return machine.FoldName(name) }

// RunPoint runs one (workload, machine, concurrency) point through the
// workload's canonical path: the default configuration for the point, the
// platform-variant substitution, and the preferred mapping. The report is
// from the substituted platform; callers that normalise against peak
// should use the spec they asked for, as the paper's figures do.
// Cancelling ctx aborts the point promptly with ctx's error.
//
// A point's op stream depends on the workload, its configuration and
// the rank count, not on the machine (see simmpi's oplog.go), so the
// point runs through Simulate keyed by (workload, configuration, P): the
// same application on another machine, a perturbed spec or a custom
// platform prices the first point's log with a bit-identical Report.
func RunPoint(ctx context.Context, w Workload, spec machine.Spec, procs int) (*simmpi.Report, error) {
	cfg := w.DefaultConfig(spec, procs)
	run := spec
	if p, ok := w.(SpecPreparer); ok {
		run = p.PrepareSpec(spec)
	}
	sim := simmpi.Config{Machine: run, Procs: procs}
	if m, ok := w.(Mapper); ok {
		if mp, ok := m.PreferredMapping(run, procs, cfg); ok {
			sim.Mapping = mp
		}
	}
	key := fmt.Sprintf("%s|%#v|P=%d", w.Name(), cfg, procs)
	return Simulate(ctx, key, sim, func(ctx context.Context, sim simmpi.Config) (*simmpi.Report, error) {
		return w.Run(ctx, sim, cfg)
	})
}

// Simulate runs one world through the process-wide record-once cache.
// key names the world's op stream: every run with that key must issue
// the same ops whatever sim's machine and mapping, as a world whose
// program reads only its configuration and rank count does. The first
// run of a key calls run with a recorder set and keeps the world's op
// log; every later run with the key prices the log on its own sim
// instead, with a bit-identical Report. Concurrent runs with one key
// wait for its single recording. A key whose log would outgrow
// logCacheBytes runs unrecorded, then and every later time.
func Simulate(ctx context.Context, key string, sim simmpi.Config, run func(context.Context, simmpi.Config) (*simmpi.Report, error)) (*simmpi.Report, error) {
	held, publish := Claim(ctx, key)
	switch {
	case held != nil:
		logCache.hits.Add(1)
		return held.(*simmpi.OpLog).Price(ctx, sim)
	case publish != nil:
		logCache.misses.Add(1)
		return record(ctx, sim, run, publish)
	}
	logCache.bypasses.Add(1)
	return run(ctx, sim)
}

// record runs the world with a recorder and publishes its log, or its
// failure, as a failure if the run panics.
func record(ctx context.Context, sim simmpi.Config, run func(context.Context, simmpi.Config) (*simmpi.Report, error), publish func(Recording, error)) (rep *simmpi.Report, err error) {
	rec := simmpi.NewRecorder(logCacheBytes)
	sim.Record = rec
	err = errRecordingPanicked
	defer func() {
		var log Recording // a nil interface, not a nil *OpLog, when abandoned
		if l := rec.Log(); l != nil {
			log = l
		}
		publish(log, err)
	}()
	return run(ctx, sim)
}

var errRecordingPanicked = errors.New("apps: recording run panicked")

// Recording is what the record-once cache holds for a key: Simulate's op
// logs, and the HyperCLaw physics trajectories its optimisation studies
// replay. Bytes is the memory it holds, charged against logCacheBytes;
// it must not change once the recording is published.
type Recording interface{ Bytes() int64 }

// logCacheBytes bounds the recordings the cache holds. At about 9 bytes
// per op, every (workload, configuration, P ≤ 128) key of a quick
// regeneration and of the served sweep grid together holds about 15 MB
// of logs, and a quick regeneration's five HyperCLaw trajectories 3 MB;
// the bound keeps all of them with room to spare. One full-scale P=1024
// HyperCLaw log alone is 36.4 MB, so full-scale regenerations record
// their largest points on every machine.
const logCacheBytes = 32 << 20

// logEntry is one key's slot. done is closed when the recording run
// ends; held stays nil if it failed, and skip marks a key whose
// recording was abandoned, which runs unrecorded from then on.
type logEntry struct {
	done chan struct{}
	held Recording
	skip bool
	elem *list.Element // in logCache.lru while the entry is current and held
}

var logCache = struct {
	mu      sync.Mutex
	entries map[string]*logEntry
	lru     list.List // keys of held recordings, most recently used first
	bytes   int64

	hits, misses, bypasses atomic.Int64
}{entries: map[string]*logEntry{}}

// Claim resolves key against the record-once cache Simulate uses. It
// returns the recording held for key; or, when none is held or being
// made, publish, which makes the caller the key's one recorder; or
// neither, when the key cannot be recorded or ctx ends while another
// run records it, and the caller runs unrecorded. A claim of a key
// being recorded waits for its publish. The recorder calls publish
// exactly once: with its recording to hold it; with the run's error to
// vacate the key, so that the next claim records; or with neither when
// the run cannot be recorded, so that the key runs unrecorded from then
// on. Each kind of recording keys under its own prefix, so that a key
// always holds the kind its claimers expect.
func Claim(ctx context.Context, key string) (held Recording, publish func(Recording, error)) {
	for {
		e, r, recording := acquire(key)
		switch {
		case r != nil:
			return r, nil
		case recording:
			return nil, func(r Recording, err error) { e.publish(key, r, err) }
		case e == nil:
			return nil, nil
		}
		select {
		case <-e.done:
			// A recording published to e reaches its waiters even if a
			// reset or eviction took e out of the cache meanwhile.
			if e.held != nil || e.skip {
				return e.held, nil
			}
			// The recording failed: claim the key again.
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// acquire looks key up: a held recording; recording true to record it
// and publish to e; e alone to wait on e.done; or nothing for a key that
// runs unrecorded.
func acquire(key string) (e *logEntry, held Recording, recording bool) {
	logCache.mu.Lock()
	defer logCache.mu.Unlock()
	e = logCache.entries[key]
	switch {
	case e == nil:
		e = &logEntry{done: make(chan struct{})}
		logCache.entries[key] = e
		return e, nil, true
	case e.held != nil:
		logCache.lru.MoveToFront(e.elem)
		return e, e.held, false
	case e.skip:
		return nil, nil, false
	}
	return e, nil, false
}

// publish completes a recording: a finished one joins the cache,
// evicting the least recently used beyond the bound; one that cannot be
// recorded marks the key to run unrecorded; a failed or cancelled run
// vacates the slot so the next claim of the key records instead.
func (e *logEntry) publish(key string, r Recording, err error) {
	logCache.mu.Lock()
	current := logCache.entries[key] == e
	switch {
	case err == nil && r != nil:
		e.held = r
		if current {
			e.elem = logCache.lru.PushFront(key)
			logCache.bytes += r.Bytes()
			for logCache.bytes > logCacheBytes {
				old := logCache.lru.Remove(logCache.lru.Back()).(string)
				logCache.bytes -= logCache.entries[old].held.Bytes()
				delete(logCache.entries, old)
			}
		}
	case err == nil:
		e.skip = true
	case current:
		delete(logCache.entries, key)
	}
	logCache.mu.Unlock()
	close(e.done)
}

// ResetLogCache drops every held recording. Benchmark bodies that
// promise fully cold iterations call this between runs.
func ResetLogCache() {
	logCache.mu.Lock()
	logCache.entries = map[string]*logEntry{}
	logCache.lru.Init()
	logCache.bytes = 0
	logCache.mu.Unlock()
}

// LogCacheStats is a snapshot of the record-once cache.
type LogCacheStats struct {
	// Entries and Bytes are the recordings held now, op logs and
	// HyperCLaw trajectories, and their size.
	Entries int
	Bytes   int64
	// Hits, Misses and Bypasses count Simulate's lifetime lookups by
	// outcome: priced from a held log, recorded, or run unrecorded.
	Hits, Misses, Bypasses int64
}

// LogCache snapshots the record-once cache.
func LogCache() LogCacheStats {
	logCache.mu.Lock()
	st := LogCacheStats{Entries: logCache.lru.Len(), Bytes: logCache.bytes}
	logCache.mu.Unlock()
	st.Hits = logCache.hits.Load()
	st.Misses = logCache.misses.Load()
	st.Bypasses = logCache.bypasses.Load()
	return st
}

// TopoConfig returns the workload's Figure 1 capture configuration,
// falling back to the canonical default.
func TopoConfig(w Workload, spec machine.Spec, procs int) any {
	if tc, ok := w.(TopoConfigurer); ok {
		return tc.TopoConfig(spec, procs)
	}
	return w.DefaultConfig(spec, procs)
}

// Studies collects the optimisation studies of every registered workload
// in registry order.
func Studies(quick bool) []Study {
	var out []Study
	for _, w := range Workloads() {
		if s, ok := w.(Studier); ok {
			out = append(out, s.Studies(quick)...)
		}
	}
	return out
}

// StudyByID finds one optimisation study across the registry.
func StudyByID(id string, quick bool) (Study, error) {
	for _, s := range Studies(quick) {
		if s.ID == id {
			return s, nil
		}
	}
	return Study{}, fmt.Errorf("apps: unknown study %q", id)
}
