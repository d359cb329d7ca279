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
// Each rank's mailbox holds its undelivered messages in arrival order;
// a receive takes the oldest one with its (source, tag). Cancellation
// needs no goroutine of its own: every communication op polls the run's
// context, and the first rank to see it cancelled aborts the world.
//
// The runtime separates nominal from actual payloads: cost models charge
// the nominal byte counts of the paper-scale problem, while the Go slices
// actually exchanged can be scaled-down arrays that fit on a laptop.
//
// A run can also be recorded (Config.Record): each rank's ops — compute,
// elapse, sends, receives, collectives and phase marks — go into a
// compact OpLog, which depends on the program and the rank count but not
// on the machine. OpLog.Price replays it against any machine spec and
// mapping without goroutines, through the same clock arithmetic the
// running world uses, and returns the same Report bit for bit (oplog.go).
// OpLog.Traffic walks the same log's sends and collectives, which is how
// the communication matrix of the paper's Figure 1 is drawn.
package simmpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// Record, if non-nil, records the run's op log (see oplog.go).
	Record *Recorder
}

// World holds the shared state of one simulated run. Worlds are pooled
// arenas: ranks, mailboxes, shard calendars, and payload buffers are
// recycled across runs (see sched.go).
type World struct {
	cfg   Config
	net   *netmodel.Model
	body  func(*Rank)
	procs int

	rankStore  []Rank
	ranks      []*Rank
	accts      []*acct // &rankStore[i].acct, for buildReport
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

	// cancelled is the run context's Done channel (nil when the context
	// cannot be cancelled), polled by Rank.checkAbort.
	cancelled <-chan struct{}

	poolMu sync.Mutex
	bufs   [numClasses][][]float64

	memoMu sync.Mutex
	memos  map[any]*memoEntry
}

// msgKey is the (source, tag) a message matches. Every pending entry
// carries one, and two int32 fields keep an entry at 48 bytes.
type msgKey struct {
	src, tag int32
}

// newMsgKey narrows a (source, tag) pair to a msgKey, panicking on a
// value outside int32 rather than letting it alias another key.
func newMsgKey(src, tag int) msgKey {
	if int(int32(src)) != src || int(int32(tag)) != tag {
		panic(fmt.Sprintf("simmpi: source %d or tag %d outside int32", src, tag))
	}
	return msgKey{src: int32(src), tag: int32(tag)}
}

type message struct {
	data   []float64
	arrive vtime.Seconds
	seq    int64 // the sender's send ordinal, for the op log
}

// pending is one undelivered message and the (source, tag) it matches.
type pending struct {
	key msgKey
	msg message
}

// mailbox is one rank's incoming message store: q[head:] are the
// undelivered messages in arrival order, and every slot before head is
// zeroed. Only the owner ever waits on it, so the wait state is a single
// (key, flag) pair rather than a condition variable.
type mailbox struct {
	mu      sync.Mutex
	owner   *Rank
	q       []pending
	head    int
	waiting bool
	waitKey msgKey
}

// push queues a message. A full slice whose delivered prefix is at
// least half its length is compacted rather than grown, so a queue that
// never drains completely stays proportional to its depth.
func (mb *mailbox) push(k msgKey, m message) {
	if mb.head > 0 && len(mb.q) == cap(mb.q) && 2*mb.head >= len(mb.q) {
		n := copy(mb.q, mb.q[mb.head:])
		clear(mb.q[n:])
		mb.q = mb.q[:n]
		mb.head = 0
	}
	mb.q = append(mb.q, pending{key: k, msg: m})
}

// take removes and returns the oldest message matching k. The entries
// older than it shift up one slot and the head advances past the one
// vacated, so an in-order receive is O(1), any other costs no more than
// the scan that found it, and per-key FIFO order holds.
func (mb *mailbox) take(k msgKey) (message, bool) {
	for i := mb.head; i < len(mb.q); i++ {
		if mb.q[i].key != k {
			continue
		}
		m := mb.q[i].msg
		copy(mb.q[mb.head+1:i+1], mb.q[mb.head:i])
		mb.q[mb.head] = pending{}
		mb.head++
		if mb.head == len(mb.q) {
			mb.q = mb.q[:0]
			mb.head = 0
		}
		return m, true
	}
	return message{}, false
}

// abortedPanic is the sentinel panic value used to unwind ranks after a
// failure elsewhere in the world.
type abortedPanic struct{ err error }

// errCancelled is the abort error of a world whose run context was
// cancelled; RunContext reports context.Cause in its place.
var errCancelled = errors.New("simmpi: run cancelled")

func (w *World) aborted() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// defaultShards picks the shard count for a world: 1 unless the host
// has idle CPUs to spend on intra-world parallelism, the runner's slot
// budget (propagated via simslot) permits it, and the world is large
// enough to amortise cross-shard handoffs. A recording world ignores
// the slot budget: every later point with its key waits for its log,
// holding a slot but no CPU, so the budget seen at dispatch understates
// the CPUs it will have.
func defaultShards(ctx context.Context, procs int, recording bool) int {
	if schedShards > 0 {
		return min(schedShards, procs)
	}
	avail := runtime.GOMAXPROCS(0)
	if n, ok := simslot.FromContext(ctx); ok && n < avail && !recording {
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
// invalid or any rank panics. When ctx is cancelled, the next rank to
// start a communication operation aborts the run through the same
// mechanism a rank failure uses — every rank unwinds at its next
// communication operation — and RunContext returns context.Cause(ctx).
// A run whose ranks all return without another communication operation
// after the cancel returns its report. Cancellation only ever turns a
// run into an error; it cannot change the virtual-time results of a run
// that completes, so successful runs stay bit-reproducible.
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
	net, err := cfg.netModel()
	if err != nil {
		return nil, err
	}
	nshards := defaultShards(ctx, cfg.Procs, cfg.Record != nil)
	sp.SetInt("shards", int64(nshards))
	w := acquireWorld(cfg.Procs, nshards)
	w.cfg = cfg
	w.net = net
	w.body = body
	w.cancelled = ctx.Done()
	if cfg.Record != nil {
		cfg.Record.begin(cfg.Procs)
	}
	w.initRanks()
	w.start()
	if err := w.aborted(); err != nil {
		releaseWorld(w)
		if errors.Is(err, errCancelled) {
			sp.SetAttr("cancelled", "true")
			return nil, context.Cause(ctx)
		}
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	rep := buildReport(cfg, w.accts)
	if cfg.Record != nil {
		cfg.Record.finish()
	}
	releaseWorld(w)
	sp.SetVirtual(float64(rep.Wall))
	return rep, nil
}

// netModel builds the run's network model: the cached default-mapping
// model, or one over the explicit mapping.
func (cfg Config) netModel() (*netmodel.Model, error) {
	if cfg.Mapping == nil {
		return netmodel.Cached(cfg.Machine, cfg.Procs)
	}
	return netmodel.NewWithMapping(cfg.Machine, cfg.Procs, cfg.Mapping)
}

// activeWorlds counts worlds currently executing — the simmpi gauge
// /metrics samples.
var activeWorlds atomic.Int64

// ActiveWorlds reports how many simulated worlds are running right now.
func ActiveWorlds() int64 { return activeWorlds.Load() }
