package simmpi

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The cooperative scheduler. Ranks are coroutines driven by per-shard
// event calendars: a rank runs inline on whichever goroutine currently
// holds the shard's "duty" (the obligation to keep dispatching) until it
// blocks on a communication op. Blocking parks the rank — its goroutine
// stays put as the rank's host — and passes duty on: directly to the
// next ready rank's host when one is due, or to a pooled looper
// goroutine when the next dispatch is a not-yet-started rank (a fresh
// body must run on a goroutine that is not already hosting a parked
// rank). A world whose ranks never block therefore runs to completion on
// the caller's goroutine alone: no goroutine is spawned, no channel is
// touched.
//
// The calendar orders ready ranks by (virtual time at readiness, rank
// id). Rank ids are unique, so the order is total by construction —
// there is no tie for a host-level race to break. The order is a
// dispatch policy, not a correctness requirement: virtual-time results
// are independent of host execution order (see the package comment), a
// property the determinism stress test exercises by deliberately
// shuffling dispatch through the schedShuffle hook.
//
// Lock order: resource lock (mailbox.mu or commShared.mu) before
// shard.mu, never the reverse; idleMu, abortMu, poolMu and a Recorder's
// mu are leaves, held while acquiring nothing else. abort takes every
// shard.mu in turn, so none of its callers holds one: a rank's
// checkAbort at the start of a communication op (how a cancelled
// context enters), runBody, and a duty holder that found nothing to
// dispatch. A parking rank publishes its parked state under both locks
// before the resource lock is released, so a waker that observes the
// wait condition also observes the parked state — a wake can never be
// lost — and the 1-buffered resume channel absorbs a dispatch that
// lands before the host actually blocks.

// errDeadlock reports a world whose unfinished ranks are all blocked on
// communication that no runnable rank will ever complete. The preemptive
// core hung forever on this shape; the cooperative core proves it the
// moment the last runnable rank parks.
var errDeadlock = errors.New("simmpi: simulated deadlock: every unfinished rank is blocked on communication no other rank will complete")

// Rank scheduling states, guarded by the rank's shard mutex.
const (
	stateFresh int32 = iota // body not started
	stateRunning
	stateParked // blocked on a communication op, host goroutine waiting
	stateDone
)

// schedShuffle, when non-nil, overrides calendar order with an arbitrary
// pick among the n dispatchable candidates (test hook: virtual-time
// results must be byte-identical under any dispatch order).
var schedShuffle func(n int) int

// schedShards, when positive, overrides defaultShards (test hook: the
// determinism stress test sweeps shard counts).
var schedShards int

// shard is one calendar: the subset of ranks whose world ids are
// congruent to idx modulo the shard count, a ready-heap over the parked
// ones, and at most one duty holder at any time.
type shard struct {
	idx int
	w   *World

	mu    sync.Mutex
	heap  []*Rank // ready parked ranks, min-heap on (readyAt, id)
	fresh int     // next unstarted world id of this shard (advances by nshards)
	idle  bool    // true when no goroutine holds this shard's duty
}

// schedBefore is the calendar order. Ids are unique, so it is total.
func schedBefore(a, b *Rank) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.id < b.id
}

func (sh *shard) heapPush(r *Rank) {
	sh.heap = append(sh.heap, r)
	sh.siftUp(len(sh.heap) - 1)
}

// heapPopAt removes and returns element i (0 = calendar minimum).
func (sh *shard) heapPopAt(i int) *Rank {
	h := sh.heap
	r := h[i]
	last := len(h) - 1
	h[i] = h[last]
	h[last] = nil
	sh.heap = h[:last]
	if i < last {
		sh.siftDown(i)
		sh.siftUp(i)
	}
	return r
}

func (sh *shard) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !schedBefore(sh.heap[i], sh.heap[p]) {
			break
		}
		sh.heap[i], sh.heap[p] = sh.heap[p], sh.heap[i]
		i = p
	}
}

func (sh *shard) siftDown(i int) {
	n := len(sh.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && schedBefore(sh.heap[l], sh.heap[m]) {
			m = l
		}
		if r < n && schedBefore(sh.heap[r], sh.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		sh.heap[i], sh.heap[m] = sh.heap[m], sh.heap[i]
		i = m
	}
}

// Dispatch decisions returned by pickLocked.
const (
	actNone     = iota // nothing dispatchable (go idle, or deadlock)
	actRun             // fresh rank claimed: run its body inline
	actDelegate        // next dispatch is fresh but the caller cannot host it
	actResume          // parked rank claimed: hand duty to its host
	actDone            // every rank has finished
)

// pickLocked chooses the next dispatch under sh.mu: the calendar minimum
// across the ready-heap and the fresh cursor (fresh ranks are ready at
// virtual time 0; the cursor keeps them in id order without heap
// traffic). canHost reports whether the caller's goroutine may run a
// fresh body itself; when it cannot (it is about to block hosting a
// parked rank), a fresh pick is reported as actDelegate and the cursor
// is left alone for a looper to claim. The shuffle hook may reorder
// picks; it can never invent a candidate.
func (sh *shard) pickLocked(canHost bool) (*Rank, int) {
	w := sh.w
	if w.finished.Load() == int64(w.procs) {
		return nil, actDone
	}
	haveFresh := sh.fresh < w.procs
	pickFresh := false
	var heapIdx int
	if schedShuffle != nil {
		n := len(sh.heap)
		if haveFresh {
			n++
		}
		if n == 0 {
			return nil, actNone
		}
		k := schedShuffle(n)
		if haveFresh && k == n-1 {
			pickFresh = true
		} else {
			heapIdx = k
		}
	} else {
		if haveFresh {
			f := sh.fresh
			if len(sh.heap) == 0 || sh.heap[0].readyAt > 0 ||
				(sh.heap[0].readyAt == 0 && f < sh.heap[0].id) {
				pickFresh = true
			}
		} else if len(sh.heap) == 0 {
			return nil, actNone
		}
	}
	if pickFresh {
		if !canHost {
			return nil, actDelegate
		}
		r := w.ranks[sh.fresh]
		sh.fresh += w.nshards
		r.state = stateRunning
		return r, actRun
	}
	r := sh.heapPopAt(heapIdx)
	r.ready = false
	r.state = stateRunning
	return r, actResume
}

// loop dispatches until the world completes or this goroutine's duty
// moves elsewhere. At most one goroutine per shard is inside loop or
// releaseDuty at any time.
func (sh *shard) loop() {
	w := sh.w
	for {
		sh.mu.Lock()
		r, act := sh.pickLocked(true)
		switch act {
		case actDone:
			sh.mu.Unlock()
			return
		case actRun:
			sh.mu.Unlock()
			w.runBody(r)
		case actResume:
			sh.mu.Unlock()
			r.resume <- struct{}{}
			return // duty handed to r's host
		default: // actNone
			if w.nshards == 1 {
				sh.mu.Unlock()
				// Unfinished ranks exist, none is runnable, and no other
				// goroutine is driving: provable simulated deadlock.
				// Abort marks every parked rank ready; the next loop
				// iterations unwind them.
				w.abort(errDeadlock)
				continue
			}
			sh.idle = true
			sh.mu.Unlock()
			w.noteIdle()
			return // duty dropped; a cross-shard wake revives the shard
		}
	}
}

// releaseDuty passes the shard's duty onward when the current holder is
// about to block hosting a parked rank. Unlike loop, a fresh body cannot
// run here, so fresh work is delegated to a looper.
func (sh *shard) releaseDuty() {
	w := sh.w
	for {
		sh.mu.Lock()
		r, act := sh.pickLocked(false)
		switch act {
		case actDone:
			sh.mu.Unlock()
			return
		case actDelegate:
			sh.mu.Unlock()
			w.dispatchLooper(sh)
			return
		case actResume:
			sh.mu.Unlock()
			r.resume <- struct{}{}
			return
		default: // actNone
			if w.nshards == 1 {
				sh.mu.Unlock()
				w.abort(errDeadlock)
				continue // the abort made the parked ranks (self included) ready
			}
			sh.idle = true
			sh.mu.Unlock()
			w.noteIdle()
			return
		}
	}
}

// park blocks the calling rank until the scheduler dispatches it again.
// The caller holds the resource lock guarding its wake condition and
// passes its unlock here: parked state becomes visible before the
// resource is released, so a wake cannot be lost. If the world aborted
// concurrently, the abort sweep may already have passed this shard, so
// the parker self-marks ready and is immediately redispatched to observe
// the abort at its wait-condition recheck.
func (r *Rank) park(unlock func()) {
	sh := r.sh
	sh.mu.Lock()
	r.state = stateParked
	r.ready = false
	if sh.w.abortFlag.Load() {
		r.ready = true
		r.readyAt = r.clock.Now()
		sh.heapPush(r)
	}
	sh.mu.Unlock()
	unlock()
	sh.releaseDuty()
	<-r.resume
}

// wake marks a parked rank ready on its shard's calendar at its current
// virtual time. Callers hold the resource lock under which the rank
// parked, which orders the wake after the parker's clock writes. Waking
// a rank that is not parked (or already ready) is a no-op: a running
// rank re-checks its wait condition under the resource lock before
// parking again.
func (w *World) wake(r *Rank) {
	sh := r.sh
	sh.mu.Lock()
	if r.state != stateParked || r.ready {
		sh.mu.Unlock()
		return
	}
	r.ready = true
	r.readyAt = r.clock.Now()
	sh.heapPush(r)
	revive := sh.idle
	sh.idle = false
	sh.mu.Unlock()
	if revive {
		w.clearIdle()
		w.dispatchLooper(sh)
	}
}

// wakeMembers wakes every rank in ids except skip, batching the heap
// pushes under one lock acquisition per shard — a collective finishing
// on a 256-rank communicator would otherwise take the shard lock 255
// times in a row. Callers hold the resource lock the members parked
// under (the commShared mutex), exactly as for wake.
func (w *World) wakeMembers(ids []int, skip *Rank) {
	for si := range w.shardStore {
		sh := &w.shardStore[si]
		pushed := false
		sh.mu.Lock()
		for _, wid := range ids {
			m := w.ranks[wid]
			if m == skip || m.sh != sh || m.state != stateParked || m.ready {
				continue
			}
			m.ready = true
			m.readyAt = m.clock.Now()
			sh.heapPush(m)
			pushed = true
		}
		revive := pushed && sh.idle
		if revive {
			sh.idle = false
		}
		sh.mu.Unlock()
		if revive {
			w.clearIdle()
			w.dispatchLooper(sh)
		}
	}
}

// noteIdle records that a shard dropped duty with nothing dispatchable.
// When every shard is idle while ranks remain unfinished, no intra-world
// event can ever occur again: global simulated deadlock. The final
// settling transition into that state is always a noteIdle (a clearIdle
// is followed by a dispatch that must idle again before the world can be
// quiescent), so checking here suffices.
func (w *World) noteIdle() {
	w.idleMu.Lock()
	w.idleShards++
	dead := w.idleShards == w.nshards && w.finished.Load() < int64(w.procs)
	w.idleMu.Unlock()
	if dead {
		w.abort(errDeadlock) // revives the idle shards to unwind their ranks
	}
}

func (w *World) clearIdle() {
	w.idleMu.Lock()
	w.idleShards--
	w.idleMu.Unlock()
}

// Host goroutines are pooled process-wide, not per world. A collective-
// heavy world parks most of its ranks at once, pinning one host per
// parked rank; if those hosts died with the world, every simulated world
// would respawn hundreds of goroutines and regrow their 2 KiB stacks
// from scratch (stack-copy churn dominated collective microbenchmarks).
// Pooled hosts keep their grown stacks warm across worlds, so the
// steady-state cost of spawning a world is zero goroutine creations.
//
// An idle host parks on its own 1-buffered channel and the pool is a
// LIFO stack, so the most recently used (warmest) host is dispatched
// first and a dispatch can never be lost: the host is pushed before it
// blocks on the receive, and the buffer absorbs a send that arrives in
// between. Idle retention is capped; surplus hosts exit instead of
// idling. Worlds track in-flight hosts with loopWG so teardown cannot
// release the arena while a host still touches it.

// maxIdleHosts bounds pool retention: each idle host is a goroutine
// whose stack the GC scans every cycle, so the cap trades steady-state
// spawn savings against a permanent per-GC tax. It covers the
// collective microbenchmark worlds (256 parked ranks) with headroom;
// the occasional 1024-rank world respawns its surplus hosts.
const maxIdleHosts = 512

type host struct{ ch chan *shard }

var (
	hostMu    sync.Mutex
	idleHosts []*host
)

// IdleHosts reports the host pool's current occupancy — the simmpi
// pool-size gauge /metrics samples.
func IdleHosts() int {
	hostMu.Lock()
	defer hostMu.Unlock()
	return len(idleHosts)
}

// dispatchLooper hands a shard needing a duty holder to a pooled host,
// spawning a fresh one only when the pool is empty.
func (w *World) dispatchLooper(sh *shard) {
	w.loopWG.Add(1)
	hostMu.Lock()
	if n := len(idleHosts); n > 0 {
		h := idleHosts[n-1]
		idleHosts[n-1] = nil
		idleHosts = idleHosts[:n-1]
		hostMu.Unlock()
		h.ch <- sh
		return
	}
	hostMu.Unlock()
	go hostMain(sh)
}

func hostMain(sh *shard) {
	h := &host{ch: make(chan *shard, 1)}
	var cur *World
	defer func() {
		// Reached only when a rank body killed this goroutine mid-serve
		// (runtime.Goexit via t.FailNow): keep the world's host
		// accounting correct so teardown does not hang.
		if cur != nil {
			cur.loopWG.Done()
		}
	}()
	for {
		cur = sh.w
		sh.loop()
		cur.loopWG.Done()
		cur, sh = nil, nil // drop world refs while idle
		hostMu.Lock()
		if len(idleHosts) >= maxIdleHosts {
			hostMu.Unlock()
			return
		}
		idleHosts = append(idleHosts, h)
		hostMu.Unlock()
		sh = <-h.ch
	}
}

// runBody executes one rank's body inline on the duty goroutine,
// converting panics into world aborts and counting completion. An
// abortedPanic is the normal unwind of an aborted world. runtime.Goexit
// (t.FailNow inside a rank body) would otherwise silently kill the duty
// goroutine, so it aborts the world and restaffs the shard before the
// goroutine dies.
func (w *World) runBody(r *Rank) {
	completed := false
	defer func() {
		//petavet:ignore sentinelpanic runBody is the scheduler's terminal handler: the abortedPanic sentinel comes to rest here by design, after every rank has unwound
		if rec := recover(); rec != nil {
			if _, isAbort := rec.(abortedPanic); !isAbort {
				w.abort(fmt.Errorf("simmpi: rank %d panicked: %v", r.id, rec))
			}
		} else if !completed {
			w.abort(fmt.Errorf("simmpi: rank %d goroutine exited without returning", r.id))
			if w.finished.Load()+1 < int64(w.procs) {
				w.dispatchLooper(r.sh)
			}
		}
		r.sh.mu.Lock()
		r.state = stateDone
		r.sh.mu.Unlock()
		if w.finished.Add(1) == int64(w.procs) {
			close(w.done)
		}
	}()
	w.body(r)
	completed = true
}

// abort records the first error, then marks every parked rank ready so
// the world unwinds instead of hanging: redispatched ranks observe the
// abort flag at their wait-condition recheck and panic(abortedPanic);
// ranks mid-compute notice at their next communication op. A cancelled
// run context enters here too, as errCancelled from checkAbort. The flag is
// published before the sweep, so a rank parking after the sweep passed
// its shard sees the flag under shard.mu and self-marks ready (see
// park): no rank can park unwoken after an abort.
func (w *World) abort(err error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortErr = err
		w.abortFlag.Store(true)
	}
	w.abortMu.Unlock()
	for si := range w.shardStore {
		sh := &w.shardStore[si]
		sh.mu.Lock()
		pushed := false
		for id := sh.idx; id < w.procs; id += w.nshards {
			r := w.ranks[id]
			if r.state == stateParked && !r.ready {
				r.ready = true
				r.readyAt = r.clock.Now()
				sh.heapPush(r)
				pushed = true
			}
		}
		revive := pushed && sh.idle
		if revive {
			sh.idle = false
		}
		sh.mu.Unlock()
		if revive {
			w.clearIdle()
			w.dispatchLooper(sh)
		}
	}
}

// start drives the world to completion from the calling goroutine: the
// caller becomes shard 0's first duty holder; every additional shard is
// staffed by a looper. Returns once all ranks finished (or unwound) and
// every looper has exited.
func (w *World) start() {
	for i := 1; i < w.nshards; i++ {
		w.dispatchLooper(&w.shardStore[i])
	}
	w.shardStore[0].loop()
	<-w.done
	w.loopWG.Wait()
}

// ---------------------------------------------------------------------
// Arenas and pools: worlds, ranks, mailboxes, and payload buffers are
// recycled through a sync.Pool so steady-state world spawn and messaging
// allocate (almost) nothing.

var worldPool = sync.Pool{New: func() any { return new(World) }}

// payload size classes: power-of-two capacities from 1<<minClassBits to
// 1<<maxClassBits; larger requests are not pooled.
const (
	minClassBits = 6
	maxClassBits = 21
	numClasses   = maxClassBits - minClassBits + 1
)

// poisonValue is the sentinel written over recycled payload buffers when
// poisoning is enabled: a quiet NaN with a recognisable bit pattern, so
// any use-after-free turns downstream results into NaNs immediately.
var poisonValue = math.Float64frombits(0x7FF8DEADBEEFDEAD)

// poisonPuts enables poison-on-put for recycled payload buffers (test
// hook).
var poisonPuts atomic.Bool

// classFor returns the size-class index for a capacity request, or -1
// when the request is too large to pool.
func classFor(n int) int {
	if n <= 0 {
		n = 1
	}
	b := bits.Len(uint(n - 1))
	if b < minClassBits {
		b = minClassBits
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// getBuf returns a zero-length slice with capacity ≥ n from the world's
// payload pool.
func (w *World) getBuf(n int) []float64 {
	c := classFor(n)
	if c < 0 {
		return make([]float64, 0, n)
	}
	w.poolMu.Lock()
	fl := w.bufs[c]
	if ln := len(fl); ln > 0 {
		p := fl[ln-1]
		fl[ln-1] = nil
		w.bufs[c] = fl[:ln-1]
		w.poolMu.Unlock()
		return p
	}
	w.poolMu.Unlock()
	return make([]float64, 0, 1<<(uint(c)+minClassBits))
}

// freeBuf recycles a payload buffer into the world's pool. Only buffers
// the caller owns outright may be freed; contents become invalid. Only
// explicitly freed buffers are ever reused, so a buffer retained by
// application code can never be aliased by a later world.
func (w *World) freeBuf(p []float64) {
	c := cap(p)
	if c == 0 || c&(c-1) != 0 {
		return // not pool-shaped; let the GC have it
	}
	cls := classFor(c)
	if cls < 0 || 1<<(uint(cls)+minClassBits) != c {
		return
	}
	if poisonPuts.Load() {
		p = p[:c]
		for i := range p {
			p[i] = poisonValue
		}
	}
	w.poolMu.Lock()
	w.bufs[cls] = append(w.bufs[cls], p[:0])
	w.poolMu.Unlock()
}

// ensure sizes the arena for procs ranks across nshards shards and
// resets all per-run scheduler state. Backing slices grow monotonically
// and are reused across worlds.
func (w *World) ensure(procs, nshards int) {
	w.procs = procs
	w.nshards = nshards
	if cap(w.rankStore) < procs {
		// Growth replaces the arrays outright (rare; sized exactly so a
		// reuse at smaller procs can never index past initialised slots).
		w.rankStore = make([]Rank, procs)
		w.ranks = make([]*Rank, procs)
		w.accts = make([]*acct, procs)
		w.mail = make([]mailbox, procs)
		w.worldIDs = make([]int, procs)
		for i := range w.rankStore {
			w.rankStore[i].resume = make(chan struct{}, 1)
			w.ranks[i] = &w.rankStore[i]
			w.accts[i] = &w.rankStore[i].acct
			w.worldIDs[i] = i
		}
	}
	w.rankStore = w.rankStore[:procs]
	w.ranks = w.ranks[:procs]
	w.accts = w.accts[:procs]
	w.mail = w.mail[:procs]
	w.worldIDs = w.worldIDs[:procs]
	if cap(w.shardStore) < nshards {
		w.shardStore = make([]shard, nshards)
	}
	w.shardStore = w.shardStore[:nshards]
	for i := range w.shardStore {
		sh := &w.shardStore[i]
		sh.idx = i
		sh.w = w
		sh.heap = sh.heap[:0]
		sh.fresh = i
		sh.idle = false
	}
	w.done = make(chan struct{})
	w.finished.Store(0)
	w.idleShards = 0
	w.abortFlag.Store(false)
	w.abortErr = nil
	if len(w.memos) > 0 {
		clear(w.memos)
	}
}

// initRanks wires the pooled rank, mailbox, and world-communicator
// structures for one run.
func (w *World) initRanks() {
	w.wshared.ensure(w.procs)
	w.world = Comm{w: w, ranks: w.worldIDs, shared: &w.wshared, world: true}
	for i := range w.rankStore {
		r := &w.rankStore[i]
		r.id = i
		r.w = w
		r.world = &w.world
		r.sh = &w.shardStore[i%w.nshards]
		r.state = stateFresh
		r.ready = false
		if rec := w.cfg.Record; rec != nil {
			r.log = &rec.ranks[i]
		}
		w.mail[i].owner = r
	}
}

// maxKeptPending bounds the mailbox capacity a pooled world keeps per
// rank. A pooled world is live heap that every GC cycle re-marks, and
// the pending slices are pointer-dense: one ghost-exchange-heavy world
// could otherwise leave megabytes of mailbox slots in the pool and
// stretch every later mark phase. Halo exchanges queue a handful of
// messages per rank and fit; a deeper mailbox (HyperCLaw's regrid
// traffic, a long burst) hands its slice back to the GC at teardown.
const maxKeptPending = 16

// reset clears per-run state after a world finishes so the arena can be
// pooled. Only structures the world actually touched are walked.
func (w *World) reset() {
	for i := range w.rankStore {
		r := &w.rankStore[i]
		select { // defensive: drop any stray resume token
		case <-r.resume:
		default:
		}
		resume := r.resume
		phases := r.phases
		if len(phases) > 0 {
			clear(phases)
		}
		*r = Rank{resume: resume, acct: acct{phases: phases}}
	}
	for i := range w.mail {
		mb := &w.mail[i]
		mb.owner = nil
		mb.waiting = false
		if cap(mb.q) > maxKeptPending {
			mb.q = nil
		} else {
			clear(mb.q) // undelivered messages never reach the next world
			mb.q = mb.q[:0]
		}
		mb.head = 0
	}
	w.wshared.clearRefs()
	w.world = Comm{}
	w.net = nil
	w.body = nil
	w.cancelled = nil
	w.cfg = Config{}
}

// acquireWorld checks a pooled arena out, sized for one run.
func acquireWorld(procs, nshards int) *World {
	w := worldPool.Get().(*World)
	w.ensure(procs, nshards)
	return w
}

func releaseWorld(w *World) {
	w.reset()
	worldPool.Put(w)
}
