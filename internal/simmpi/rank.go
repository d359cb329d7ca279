package simmpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/vtime"
)

// Rank is one simulated MPI process. All methods must be called from the
// rank's body function (which the scheduler runs as a coroutine).
type Rank struct {
	id    int
	w     *World
	world *Comm

	// Scheduler state (see sched.go). state and ready are guarded by
	// sh.mu; resume is the 1-buffered dispatch token channel, allocated
	// once and reused across pooled worlds.
	sh      *shard
	state   int32
	ready   bool
	readyAt vtime.Seconds
	resume  chan struct{}

	clock  vtime.Clock
	flops  float64
	compT  vtime.Seconds
	commT  vtime.Seconds
	sent   float64 // nominal bytes sent point-to-point
	nmsgs  int64
	phases map[string]vtime.Seconds // lazy; reused across pooled worlds
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// N returns the world size.
func (r *Rank) N() int { return r.w.procs }

// Machine returns the platform spec of the run.
func (r *Rank) Machine() machine.Spec { return r.w.cfg.Machine }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.world }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vtime.Seconds { return r.clock.Now() }

// checkAbort unwinds this rank if another rank has failed.
func (r *Rank) checkAbort() {
	if r.w.abortFlag.Load() {
		panic(abortedPanic{r.w.aborted()})
	}
}

// Compute advances the rank's clock by the modelled duration of executing
// the given number of (nominal) flops of kernel k, and credits the flops
// to the rank. This is how applications charge their computational phases.
func (r *Rank) Compute(k perfmodel.Kernel, flops float64) {
	if flops <= 0 {
		return
	}
	t := perfmodel.Time(r.w.cfg.Machine, k, flops)
	r.clock.Advance(t)
	r.compT += t
	r.flops += flops
}

// Elapse advances the clock without crediting flops — used for modelled
// overheads that perform no arithmetic (e.g. data movement phases).
func (r *Rank) Elapse(d vtime.Seconds) {
	r.clock.Advance(d)
	r.compT += d
}

// AddPhase attributes a duration to a named phase for reporting.
func (r *Rank) AddPhase(name string, d vtime.Seconds) {
	if r.phases == nil {
		r.phases = make(map[string]vtime.Seconds)
	}
	r.phases[name] += d
}

// GetBuf returns a zero-length scratch slice with capacity ≥ n from the
// world's payload pool. Pair with FreeBuf once the buffer's last use is
// done (typically after handing a packed payload to SendOwnedNominal's
// receiver has consumed it, or after unpacking a received region).
// Buffers never freed are simply garbage-collected; only explicitly
// freed buffers are recycled, so retained results can never be aliased.
func (r *Rank) GetBuf(n int) []float64 { return r.w.getBuf(n) }

// FreeBuf recycles a buffer previously obtained from GetBuf (or any
// world-scoped buffer the caller owns outright). The contents become
// invalid immediately.
func (r *Rank) FreeBuf(p []float64) { r.w.freeBuf(p) }

// Send transmits data to rank dst with the given tag. The nominal charged
// size is len(data)*8 bytes. Send never blocks: the sender pays only its
// occupancy; delivery happens in virtual time.
func (r *Rank) Send(dst, tag int, data []float64) {
	r.SendNominal(dst, tag, data, float64(len(data)*8))
}

// SendNominal transmits data but charges the cost model nomBytes instead
// of the actual payload size — the mechanism that lets scaled-down arrays
// stand in for paper-scale problems. The payload is copied, so the caller
// may keep mutating data after the call, like a completed MPI_Send.
func (r *Rank) SendNominal(dst, tag int, data []float64, nomBytes float64) {
	r.SendOwnedNominal(dst, tag, append([]float64(nil), data...), nomBytes)
}

// SendOwnedNominal is SendNominal without the defensive payload copy:
// ownership of data transfers to the receiver, so the caller must not
// touch the slice afterwards. Use it when the payload is freshly built
// for this one send (e.g. packed ghost regions) to avoid doubling the
// allocation traffic of halo exchanges.
func (r *Rank) SendOwnedNominal(dst, tag int, data []float64, nomBytes float64) {
	r.checkAbort()
	if dst < 0 || dst >= r.N() {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid rank %d", r.id, dst))
	}
	w := r.w
	occ, delay := w.net.P2P(r.id, dst, nomBytes)
	depart := r.clock.Now()
	r.clock.Advance(occ)
	r.commT += occ
	r.sent += nomBytes
	r.nmsgs++
	if c := w.cfg.Collector; c != nil {
		c.RecordP2P(r.id, dst, nomBytes)
	}
	msg := message{data: data, arrive: depart + delay}
	k := msgKey{src: r.id, tag: tag}
	mb := &w.mail[dst]
	mb.mu.Lock()
	if mb.q == nil {
		mb.q = make(map[msgKey]*msgq)
	}
	q := mb.q[k]
	if q == nil {
		q = w.getMsgq()
		mb.q[k] = q
	}
	q.push(msg)
	if mb.waiting && mb.waitKey == k {
		w.wake(mb.owner)
	}
	mb.mu.Unlock()
}

// Recv blocks (in virtual and host time) until a message with the given
// source and tag arrives, then returns its payload. The rank's clock
// advances to the message arrival time plus receive overhead.
func (r *Rank) Recv(src, tag int) []float64 {
	r.checkAbort()
	if src < 0 || src >= r.N() {
		panic(fmt.Sprintf("simmpi: rank %d receives from invalid rank %d", r.id, src))
	}
	w := r.w
	mb := &w.mail[r.id]
	k := msgKey{src: src, tag: tag}
	mb.mu.Lock()
	for {
		if q := mb.q[k]; q != nil && !q.empty() {
			msg := q.pop()
			if q.empty() {
				// Recycle drained queues eagerly: halo exchanges use
				// monotone tags, so (src, tag) keys almost always carry
				// exactly one message (every key does in `petasim -quick
				// -max 64 all`) and would otherwise pin a fresh msgq until
				// world teardown. Deleting the key keeps the map's buckets
				// for reuse; a steady key (ping-pong) re-inserts
				// allocation-free.
				delete(mb.q, k)
				w.putMsgq(q)
			}
			mb.mu.Unlock()
			before := r.clock.Now()
			r.clock.AdvanceTo(msg.arrive)
			r.clock.Advance(w.net.RecvOverhead())
			r.commT += r.clock.Now() - before
			return msg.data
		}
		if w.abortFlag.Load() {
			mb.mu.Unlock()
			panic(abortedPanic{w.aborted()})
		}
		mb.waiting = true
		mb.waitKey = k
		r.park(mb.mu.Unlock)
		mb.mu.Lock()
		mb.waiting = false
	}
}

// Sendrecv performs a simultaneous exchange: send to dst, receive from
// src. Because sends never block, this is deadlock-free in any order.
func (r *Rank) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	r.SendNominal(dst, sendTag, data, float64(len(data)*8))
	return r.Recv(src, recvTag)
}

// SendrecvNominal is Sendrecv with an explicit nominal size for both sides.
func (r *Rank) SendrecvNominal(dst, sendTag int, data []float64, src, recvTag int, nomBytes float64) []float64 {
	r.SendNominal(dst, sendTag, data, nomBytes)
	return r.Recv(src, recvTag)
}

// Stats snapshots the rank's accounting (used by the report builder).
type rankStats struct {
	clock vtime.Seconds
	flops float64
	compT vtime.Seconds
	commT vtime.Seconds
	sent  float64
	nmsgs int64
}

func (r *Rank) stats() rankStats {
	return rankStats{
		clock: r.clock.Now(),
		flops: r.flops,
		compT: r.compT,
		commT: r.commT,
		sent:  r.sent,
		nmsgs: r.nmsgs,
	}
}
