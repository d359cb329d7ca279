package simmpi

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/vtime"
)

// Op selects the reduction operator of Reduce/Allreduce. Reductions are
// applied in communicator-rank order, so results are bit-deterministic.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) combine(dst, src []float64) {
	switch o {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// Comm is a communicator: an ordered group of world ranks with shared
// rendezvous state for collectives. A single *Comm value is shared by all
// of its members.
type Comm struct {
	w      *World
	ranks  []int       // ranks[i] = world id of communicator rank i
	pos    map[int]int // world id → communicator rank (nil for world comm)
	shared *commShared
	world  bool // world communicator: ranks[i] == i, no pos map needed
}

// slot is one member's contribution to (or result from) a collective.
// The typed fields replace interface{} boxing, which cost an allocation
// per member per collective.
type slot struct {
	vec   []float64
	parts [][]float64
	ck    [2]int // Split's (color, key)
	cm    *Comm  // Split's result
}

type commShared struct {
	mu       sync.Mutex
	gen      uint64
	arrived  int
	maxClock vtime.Seconds
	nomBytes float64
	inputs   []slot
	outputs  []slot
	finish   vtime.Seconds
	inst     int32 // the last instance's op-log id, while recording
}

// ensure sizes and resets the rendezvous state for n members (pooled
// world communicator reuse).
func (s *commShared) ensure(n int) {
	s.gen = 0
	s.arrived = 0
	s.maxClock = math.Inf(-1)
	s.nomBytes = 0
	s.finish = 0
	if cap(s.inputs) < n {
		s.inputs = make([]slot, n)
		s.outputs = make([]slot, n)
		return
	}
	s.inputs = s.inputs[:n]
	s.outputs = s.outputs[:n]
	s.clearRefs()
}

// clearRefs drops payload references so pooled worlds do not pin
// application data.
func (s *commShared) clearRefs() {
	for i := range s.inputs {
		s.inputs[i] = slot{}
	}
	for i := range s.outputs {
		s.outputs[i] = slot{}
	}
}

func newCommShared(n int) *commShared {
	return &commShared{
		maxClock: math.Inf(-1),
		inputs:   make([]slot, n),
		outputs:  make([]slot, n),
	}
}

func newComm(w *World, ranks []int) *Comm {
	pos := make(map[int]int, len(ranks))
	for i, wr := range ranks {
		pos[wr] = i
	}
	return &Comm{w: w, ranks: ranks, pos: pos, shared: newCommShared(len(ranks))}
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns r's rank within the communicator, or -1 if not a member.
func (c *Comm) Rank(r *Rank) int {
	if c.world {
		if r.id >= 0 && r.id < len(c.ranks) {
			return r.id
		}
		return -1
	}
	if i, ok := c.pos[r.id]; ok {
		return i
	}
	return -1
}

// collKind names a collective's cost formula.
type collKind uint8

// Collective kinds.
const (
	collBarrier collKind = iota
	collBcast
	collAllreduce
	collReduce
	collAllgather
	collGather
	collScatter
	collAlltoall
	collReduceScatter
	collAlltoallN
	collSplit
)

// collInstance is one completed collective: what its finish time costs
// on any machine.
type collInstance struct {
	kind  collKind
	size  int32   // members
	n     int32   // repeats (collAlltoallN)
	bytes float64 // resolved nominal bytes
}

// cost is the modelled duration of the collective on net.
func (ci collInstance) cost(net *netmodel.Model) vtime.Seconds {
	p, b := int(ci.size), ci.bytes
	switch ci.kind {
	case collBarrier:
		return net.Barrier(p)
	case collBcast:
		return net.Bcast(p, b)
	case collAllreduce:
		return net.Allreduce(p, b)
	case collReduce:
		return net.Reduce(p, b)
	case collAllgather, collSplit:
		return net.Allgather(p, b)
	case collGather, collScatter:
		// A scatter is a gather run in reverse: same root bottleneck.
		return net.Gather(p, b)
	case collAlltoall:
		return net.Alltoall(p, b)
	case collReduceScatter:
		// Rabenseifner's allreduce is reduce-scatter + allgather; charge
		// the first half plus combining.
		return net.Allreduce(p, b) / 2
	case collAlltoallN:
		return float64(ci.n) * net.Alltoall(p, b)
	}
	panic(fmt.Sprintf("simmpi: unknown collective kind %d", ci.kind))
}

// finish is the instant every member leaves the collective, given the
// latest member's entry.
func (ci collInstance) finish(net *netmodel.Model, maxClock vtime.Seconds) vtime.Seconds {
	return maxClock + ci.cost(net)
}

// collect is the generation-numbered rendezvous at the heart of every
// collective. Arrivers park; the last arriver runs fin (under the lock)
// to fill outputs and return the nominal bytes the collective charges,
// prices the instance, then wakes every other member — all of which are
// parked right here, by the lock ordering argument in sched.go. Everyone
// leaves with their output and their clock advanced to the finish
// instant.
func (c *Comm) collect(r *Rank, kind collKind, n int32, input slot, nomBytes float64, fin func(s *commShared) float64) slot {
	r.checkAbort()
	me := c.Rank(r)
	if me < 0 {
		panic(fmt.Sprintf("simmpi: rank %d is not a member of the communicator", r.id))
	}
	entry := r.clock.Now()
	w := r.w
	s := c.shared
	s.mu.Lock()
	g := s.gen
	s.inputs[me] = input
	if entry > s.maxClock {
		s.maxClock = entry
	}
	if nomBytes > s.nomBytes {
		s.nomBytes = nomBytes
	}
	s.arrived++
	if s.arrived == len(c.ranks) {
		ci := collInstance{kind: kind, size: int32(len(c.ranks)), n: n, bytes: fin(s)}
		s.finish = ci.finish(w.net, s.maxClock)
		if rec := w.cfg.Record; rec != nil {
			s.inst = rec.addColl(ci)
		}
		s.arrived = 0
		s.maxClock = math.Inf(-1)
		s.nomBytes = 0
		for i := range s.inputs {
			s.inputs[i] = slot{}
		}
		s.gen++
		w.wakeMembers(c.ranks, r)
	} else {
		for s.gen == g {
			if w.abortFlag.Load() {
				s.mu.Unlock()
				panic(abortedPanic{w.aborted()})
			}
			r.park(s.mu.Unlock)
			s.mu.Lock()
		}
	}
	out := s.outputs[me]
	s.outputs[me] = slot{}
	finish, inst := s.finish, s.inst
	s.mu.Unlock()

	r.leave(entry, finish)
	if l := r.log; l != nil {
		l.add(opColl, inst, nomBytes)
	}
	return out
}

// fanOutVec hands every member its own copy of src, carved from one
// backing allocation instead of one per member. The copies go to
// application code (a rank may mutate its result in place), so they
// must not overlap — full-capacity subslices guarantee that even
// through append.
func fanOutVec(outputs []slot, src []float64) {
	k := len(src)
	if k == 0 {
		for i := range outputs {
			outputs[i].vec = nil
		}
		return
	}
	backing := make([]float64, k*len(outputs))
	for i := range outputs {
		dst := backing[i*k : (i+1)*k : (i+1)*k]
		copy(dst, src)
		outputs[i].vec = dst
	}
}

// Barrier synchronises all members of the communicator.
func (r *Rank) Barrier(c *Comm) {
	c.collect(r, collBarrier, 0, slot{}, 0, func(*commShared) float64 { return 0 })
}

// Bcast distributes root's data to every member and returns each member's
// copy. root is a communicator rank.
func (r *Rank) Bcast(c *Comm, root int, data []float64) []float64 {
	return r.BcastNominal(c, root, data, -1)
}

// BcastNominal is Bcast charging an explicit nominal byte count
// (nomBytes < 0 charges the actual payload size).
func (r *Rank) BcastNominal(c *Comm, root int, data []float64, nomBytes float64) []float64 {
	var in slot
	if c.Rank(r) == root {
		in.vec = data
	}
	out := c.collect(r, collBcast, 0, in, nomBytes, func(s *commShared) float64 {
		src := s.inputs[root].vec
		b := s.nomBytes
		if b <= 0 {
			// Same fallback as every other collective: a zero or negative
			// nominal size charges the actual payload.
			b = float64(len(src) * 8)
		}
		fanOutVec(s.outputs, src)
		return b
	})
	return out.vec
}

// Allreduce combines data elementwise across all members with op and
// returns the combined vector to every member.
func (r *Rank) Allreduce(c *Comm, data []float64, op Op) []float64 {
	return r.AllreduceNominal(c, data, op, -1)
}

// AllreduceNominal is Allreduce charging an explicit nominal byte count.
func (r *Rank) AllreduceNominal(c *Comm, data []float64, op Op, nomBytes float64) []float64 {
	out := c.collect(r, collAllreduce, 0, slot{vec: data}, nomBytes, func(s *commShared) float64 {
		acc := reduceInputs(s.inputs, op)
		b := s.nomBytes
		if b <= 0 {
			b = float64(len(acc) * 8)
		}
		fanOutVec(s.outputs, acc)
		return b
	})
	return out.vec
}

// AllreduceScalar reduces a single value across the communicator.
func (r *Rank) AllreduceScalar(c *Comm, v float64, op Op) float64 {
	res := r.Allreduce(c, []float64{v}, op)
	return res[0]
}

// Reduce combines data to the root (communicator rank). Only the root
// receives a non-nil result.
func (r *Rank) Reduce(c *Comm, root int, data []float64, op Op) []float64 {
	out := c.collect(r, collReduce, 0, slot{vec: data}, float64(len(data)*8), func(s *commShared) float64 {
		acc := reduceInputs(s.inputs, op)
		for i := range s.outputs {
			s.outputs[i].vec = nil
		}
		s.outputs[root].vec = acc
		return s.nomBytes
	})
	return out.vec
}

func reduceInputs(inputs []slot, op Op) []float64 {
	var acc []float64
	for i := range inputs {
		v := inputs[i].vec
		if v == nil {
			continue
		}
		if acc == nil {
			acc = append([]float64(nil), v...)
			continue
		}
		op.combine(acc, v)
	}
	return acc
}

// Allgather concatenates every member's contribution; element i of the
// result is member i's (shared, read-only) contribution.
func (r *Rank) Allgather(c *Comm, data []float64) [][]float64 {
	return r.AllgatherNominal(c, data, -1)
}

// AllgatherNominal is Allgather charging an explicit per-rank nominal
// byte count.
func (r *Rank) AllgatherNominal(c *Comm, data []float64, nomBytes float64) [][]float64 {
	out := c.collect(r, collAllgather, 0, slot{vec: append([]float64(nil), data...)}, nomBytes, func(s *commShared) float64 {
		all := make([][]float64, len(s.inputs))
		for i := range s.inputs {
			all[i] = s.inputs[i].vec
		}
		b := s.nomBytes
		if b <= 0 {
			b = maxInputBytes(s.inputs)
		}
		for i := range s.outputs {
			s.outputs[i].parts = all
		}
		return b
	})
	return out.parts
}

// Gather collects every member's contribution at the root; only the root
// receives a non-nil result (read-only slices).
func (r *Rank) Gather(c *Comm, root int, data []float64) [][]float64 {
	out := c.collect(r, collGather, 0, slot{vec: append([]float64(nil), data...)}, float64(len(data)*8), func(s *commShared) float64 {
		all := make([][]float64, len(s.inputs))
		for i := range s.inputs {
			all[i] = s.inputs[i].vec
		}
		for i := range s.outputs {
			s.outputs[i].parts = nil
		}
		s.outputs[root].parts = all
		return s.nomBytes
	})
	return out.parts
}

// Alltoall performs a complete exchange: parts[i] is sent to communicator
// rank i, and the returned slice holds what each member sent to this rank.
// The caller owns the returned inner slices exclusively.
func (r *Rank) Alltoall(c *Comm, parts [][]float64) [][]float64 {
	return r.AlltoallNominal(c, parts, -1)
}

// AlltoallNominal is Alltoall charging an explicit nominal byte count per
// rank pair.
func (r *Rank) AlltoallNominal(c *Comm, parts [][]float64, nomBytesPerPair float64) [][]float64 {
	if len(parts) != len(c.ranks) {
		panic(fmt.Sprintf("simmpi: alltoall with %d parts on a %d-rank communicator",
			len(parts), len(c.ranks)))
	}
	// Snapshot inputs so senders may reuse their buffers.
	snap := make([][]float64, len(parts))
	for i, p := range parts {
		snap[i] = append([]float64(nil), p...)
	}
	out := c.collect(r, collAlltoall, 0, slot{parts: snap}, nomBytesPerPair, func(s *commShared) float64 {
		n := len(s.inputs)
		b := s.nomBytes
		if b <= 0 {
			b = maxPartBytes(s.inputs)
		}
		for j := 0; j < n; j++ {
			recvd := make([][]float64, n)
			for i := 0; i < n; i++ {
				if in := s.inputs[i].parts; in != nil {
					recvd[i] = in[j]
				}
			}
			s.outputs[j].parts = recvd
		}
		return b
	})
	return out.parts
}

func maxInputBytes(inputs []slot) float64 {
	var b float64
	for i := range inputs {
		if s := float64(len(inputs[i].vec) * 8); s > b {
			b = s
		}
	}
	return b
}

func maxPartBytes(inputs []slot) float64 {
	var b float64
	for i := range inputs {
		for _, p := range inputs[i].parts {
			if s := float64(len(p) * 8); s > b {
				b = s
			}
		}
	}
	return b
}

// Scatter distributes root's parts: member i receives parts[i]. Only the
// root's parts argument is consulted.
func (r *Rank) Scatter(c *Comm, root int, parts [][]float64) []float64 {
	var in slot
	if c.Rank(r) == root {
		snap := make([][]float64, len(parts))
		for i, p := range parts {
			snap[i] = append([]float64(nil), p...)
		}
		in.parts = snap
	}
	out := c.collect(r, collScatter, 0, in, 0, func(s *commShared) float64 {
		rootParts := s.inputs[root].parts
		var b float64
		for i := range s.outputs {
			var part []float64
			if i < len(rootParts) {
				part = rootParts[i]
			}
			if v := float64(len(part) * 8); v > b {
				b = v
			}
			s.outputs[i].vec = part
		}
		return b
	})
	return out.vec
}

// ReduceScatter combines data elementwise across members, then scatters
// the result in equal contiguous chunks: member i receives chunk i. The
// input length must be divisible by the communicator size.
func (r *Rank) ReduceScatter(c *Comm, data []float64, op Op) []float64 {
	if len(data)%len(c.ranks) != 0 {
		panic(fmt.Sprintf("simmpi: reduce-scatter of %d elements over %d ranks", len(data), len(c.ranks)))
	}
	out := c.collect(r, collReduceScatter, 0, slot{vec: data}, float64(len(data)*8), func(s *commShared) float64 {
		acc := reduceInputs(s.inputs, op)
		n := len(c.ranks)
		chunk := len(acc) / n
		for i := 0; i < n; i++ {
			s.outputs[i].vec = append([]float64(nil), acc[i*chunk:(i+1)*chunk]...)
		}
		return s.nomBytes
	})
	return out.vec
}

// ChargeAlltoallN synchronises the communicator once and advances every
// member's clock by n times the modelled cost of an all-to-all moving
// bytesPerPair between every rank pair. It moves no payload: it exists
// for phases whose data motion is charged at nominal scale only (e.g.
// PARATEC's band-blocked FFT transposes), where performing n real
// collectives would cost O(n·P²) host allocations for no numerical
// content.
func (r *Rank) ChargeAlltoallN(c *Comm, bytesPerPair float64, n int) {
	if n <= 0 {
		return
	}
	c.collect(r, collAlltoallN, int32(n), slot{}, bytesPerPair, func(s *commShared) float64 {
		for i := range s.outputs {
			s.outputs[i] = slot{}
		}
		return bytesPerPair
	})
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, world rank), exactly like MPI_Comm_split. Members
// passing a negative color receive nil.
func (r *Rank) Split(c *Comm, color, key int) *Comm {
	out := c.collect(r, collSplit, 0, slot{ck: [2]int{color, key}}, 0, func(s *commShared) float64 {
		type member struct{ color, key, world, idx int }
		var ms []member
		for i := range s.inputs {
			ck := s.inputs[i].ck
			ms = append(ms, member{color: ck[0], key: ck[1], world: c.ranks[i], idx: i})
		}
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].color != ms[b].color {
				return ms[a].color < ms[b].color
			}
			if ms[a].key != ms[b].key {
				return ms[a].key < ms[b].key
			}
			return ms[a].world < ms[b].world
		})
		children := make(map[int]*Comm)
		start := 0
		for start < len(ms) {
			end := start
			for end < len(ms) && ms[end].color == ms[start].color {
				end++
			}
			if ms[start].color >= 0 {
				worldRanks := make([]int, 0, end-start)
				for _, m := range ms[start:end] {
					worldRanks = append(worldRanks, m.world)
				}
				children[ms[start].color] = newComm(c.w, worldRanks)
			}
			start = end
		}
		for i := range s.outputs {
			s.outputs[i].cm = nil
		}
		for _, m := range ms {
			if m.color >= 0 {
				s.outputs[m.idx].cm = children[m.color]
			}
		}
		// A split costs roughly an allgather of the (color, key) pairs.
		return 8
	})
	return out.cm
}
