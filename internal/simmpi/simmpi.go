// Package simmpi is a deterministic virtual-time MPI runtime: the
// substrate that replaces the paper's production MPI installations.
//
// Ranks are cooperative coroutines driven by a discrete-event calendar
// (see sched.go): each rank runs until it blocks on a communication op,
// parks, and the scheduler dispatches the next ready rank in (virtual
// time, rank id) order. Computation advances a rank's private virtual
// clock through the processor performance model (internal/perfmodel);
// messages carry virtual departure timestamps and arrive after delays
// computed by the network model (internal/netmodel). Because
// point-to-point matching is (source, tag, FIFO) with no wildcards, and
// reductions are applied in rank order, a simulation's virtual-time
// results are bit-reproducible regardless of host scheduling, shard
// count, or GOMAXPROCS.
//
// The runtime separates nominal from actual payloads: cost models charge
// the nominal byte counts of the paper-scale problem, while the Go slices
// actually exchanged can be scaled-down arrays that fit on a laptop.
package simmpi

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/commmatrix"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/simslot"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Config describes one simulated run.
type Config struct {
	// Machine is the platform model to run on.
	Machine machine.Spec
	// Procs is the number of MPI ranks.
	Procs int
	// Mapping optionally overrides the default block rank→node mapping.
	Mapping topology.Mapping
	// Collector, if non-nil, records the communication matrix.
	Collector *commmatrix.Collector
	// Shards optionally fixes the number of scheduler shards (parallel
	// event calendars) inside the world. 0 picks automatically: 1 on a
	// single-CPU host or when the runner has no spare simulation slots,
	// more for large worlds with idle CPUs. Virtual-time results are
	// identical for every value; only host-time parallelism changes.
	Shards int
}

// World holds the shared state of one simulated run. Worlds are pooled
// arenas: ranks, mailboxes, message queues, shard calendars, and payload
// buffers are recycled across runs (see sched.go).
type World struct {
	cfg   Config
	net   *netmodel.Model
	body  func(*Rank)
	procs int

	rankStore  []Rank
	ranks      []*Rank
	mail       []mailbox
	worldIDs   []int
	shardStore []shard
	nshards    int

	world   Comm
	wshared commShared

	done     chan struct{}
	finished atomic.Int64

	loopWG sync.WaitGroup // hosts currently serving this world's shards

	idleMu     sync.Mutex
	idleShards int

	abortFlag atomic.Bool
	abortMu   sync.Mutex
	abortErr  error

	// Cancellation-watcher handshake (see watcherMain in sched.go). Both
	// channels are unbuffered, never closed, and reused across runs: each
	// watchCancel is matched by exactly one stopWatch rendezvous.
	watchStop  chan struct{}
	watchFired chan struct{}

	poolMu   sync.Mutex
	bufs     [numClasses][][]float64
	msgqFree []*msgq

	memoMu sync.Mutex
	memos  map[any]*memoEntry
}

type msgKey struct {
	src, tag int
}

type message struct {
	data   []float64
	arrive vtime.Seconds
}

// mailbox is one rank's incoming message store. Only the owner ever
// waits on it, so the wait state is a single (key, flag) pair rather
// than a condition variable.
type mailbox struct {
	mu      sync.Mutex
	owner   *Rank
	q       map[msgKey]*msgq // lazy: nil until the first message
	waiting bool
	waitKey msgKey
}

// abortedPanic is the sentinel panic value used to unwind ranks after a
// failure elsewhere in the world.
type abortedPanic struct{ err error }

func (w *World) aborted() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// Net exposes the network model (for reporting).
func (w *World) Net() *netmodel.Model { return w.net }

// defaultShards picks the shard count for a world: 1 unless the host
// has idle CPUs to spend on intra-world parallelism, the runner's slot
// budget (propagated via simslot) permits it, and the world is large
// enough to amortise cross-shard handoffs.
func defaultShards(ctx context.Context, procs int) int {
	avail := runtime.GOMAXPROCS(0)
	if n, ok := simslot.FromContext(ctx); ok && n < avail {
		avail = n
	}
	if avail < 1 {
		avail = 1
	}
	if lim := procs / 64; avail > lim {
		avail = lim
	}
	if avail < 1 {
		avail = 1
	}
	return avail
}

// RunContext executes body on every rank of a fresh world and
// aggregates the results. It returns an error if the configuration is
// invalid or any rank panics. When ctx is cancelled the run aborts
// through the same mechanism a rank failure uses — every rank unwinds
// at its next communication operation — and RunContext returns ctx's
// error. Cancellation only ever turns a run into an error; it cannot
// change the virtual-time results of a run that completes, so
// successful runs stay bit-reproducible.
func RunContext(ctx context.Context, cfg Config, body func(*Rank)) (*Report, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("simmpi: nonpositive proc count %d", cfg.Procs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "simmpi.world")
	defer sp.End()
	sp.SetAttr("machine", cfg.Machine.Name)
	sp.SetInt("procs", int64(cfg.Procs))
	activeWorlds.Add(1)
	defer activeWorlds.Add(-1)
	var net *netmodel.Model
	var err error
	if cfg.Mapping == nil {
		net, err = netmodel.Cached(cfg.Machine, cfg.Procs)
	} else {
		net, err = netmodel.NewWithMapping(cfg.Machine, cfg.Procs, cfg.Mapping)
	}
	if err != nil {
		return nil, err
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = defaultShards(ctx, cfg.Procs)
	}
	if nshards > cfg.Procs {
		nshards = cfg.Procs
	}
	sp.SetInt("shards", int64(nshards))
	w := acquireWorld(cfg.Procs, nshards)
	w.cfg = cfg
	w.net = net
	w.body = body
	w.initRanks()

	// A cancelled ctx aborts the world exactly like a rank failure:
	// blocked ranks wake, see the abort, and unwind; ranks in a
	// pure-compute stretch notice at their next communication op. The
	// watcher is skipped entirely for non-cancellable contexts, and
	// stopWatch guarantees the arena is not recycled until a fired
	// watcher's abort sweep has finished with it.
	var wt *watcher
	if ctx.Done() != nil {
		wt = w.watchCancel(ctx)
	}

	w.start()

	if wt != nil {
		w.stopWatch(wt)
	}
	if err := w.aborted(); err != nil {
		releaseWorld(w)
		if ctx.Err() != nil {
			sp.SetAttr("cancelled", "true")
		} else {
			sp.SetAttr("error", err.Error())
		}
		return nil, err
	}
	rep := buildReport(cfg, net, w.ranks)
	releaseWorld(w)
	sp.SetVirtual(float64(rep.Wall))
	return rep, nil
}

// activeWorlds counts worlds currently executing — the simmpi gauge
// /metrics samples.
var activeWorlds atomic.Int64

// ActiveWorlds reports how many simulated worlds are running right now.
func ActiveWorlds() int64 { return activeWorlds.Load() }

// MustRunContext is RunContext but panics on error; convenient in
// examples and benches.
func MustRunContext(ctx context.Context, cfg Config, body func(*Rank)) *Report {
	rep, err := RunContext(ctx, cfg, body)
	if err != nil {
		panic(err)
	}
	return rep
}
