package simmpi

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/vtime"
)

// Record once, price per machine. The ops a world issues — which kernels
// run how many flops, which ranks exchange how many nominal bytes, which
// collectives run over how many members — depend on the program and the
// rank count, never on the machine: the machine enters only through
// perfmodel and netmodel, which price each op with a stateless formula.
// Receives always name their source and sends never block, so a run's
// virtual times are a clock pass over its op stream. A Recorder captures
// that stream while a world runs; OpLog.Price replays it against any
// machine and mapping without goroutines, through the same acct methods
// and collective cost helper the running world uses, and returns the
// Report RunContext would.

// Op kinds. Each op is (kind, arg, val); val indexes OpLog.values unless
// noted.
const (
	opCompute uint8 = iota // arg: kernel index; val: flops
	opElapse               // val: seconds
	opSend                 // arg: destination; val: nominal bytes
	opRecv                 // arg: source; val (raw): the sender's send ordinal
	opColl                 // arg: collective instance; val: the member's nominal bytes
	opMark                 // opens a phase interval
	opEnd                  // arg: phase name index; val (raw): depth of its mark
)

// opBytes is the size of one logged op: kind, arg and val.
const opBytes = 1 + 4 + 4

// OpLog is one world's recorded op stream: per rank, its ops in program
// order, as parallel arrays. Kernels, phase names, values and collective
// instances are numbered by first appearance in rank-major order, so a
// log is a deterministic function of the op stream, whatever the host
// order or machine of the run that recorded it. An OpLog is immutable
// and safe for concurrent pricing.
type OpLog struct {
	procs   int
	start   []int32 // rank r's ops are [start[r], start[r+1])
	kind    []uint8
	arg     []int32
	val     []uint32
	values  []float64
	kernels []perfmodel.Kernel
	phases  []string
	colls   []collInstance
}

// Ops returns the number of recorded ops.
func (l *OpLog) Ops() int { return len(l.kind) }

// Bytes returns the log's approximate retained size.
func (l *OpLog) Bytes() int64 {
	n := int64(len(l.kind))*opBytes + int64(len(l.start))*4 +
		int64(len(l.values))*8 + int64(len(l.colls))*16
	for _, k := range l.kernels {
		n += 64 + int64(len(k.Name))
	}
	for _, p := range l.phases {
		n += 16 + int64(len(p))
	}
	return n
}

// collNames spells each collective kind as Traffic reports it: a
// ChargeAlltoallN is an alltoall.
var collNames = [...]string{
	collBarrier:       "barrier",
	collBcast:         "bcast",
	collAllreduce:     "allreduce",
	collReduce:        "reduce",
	collAllgather:     "allgather",
	collGather:        "gather",
	collScatter:       "scatter",
	collAlltoall:      "alltoall",
	collReduceScatter: "reducescatter",
	collAlltoallN:     "alltoall",
	collSplit:         "split",
}

// Traffic walks the log's communication: ranks in order, each rank's
// ops in program order. It calls send once per send with its source,
// destination and nominal bytes, and coll once per member's collective
// op with the collective's kind, its members (the world ranks whose
// streams reference it, ascending) and the nominal bytes that member
// passed, unresolved: a negative count asks for the payload size. Every
// call for one collective shares its members slice, which the callee
// must not modify.
func (l *OpLog) Traffic(send func(src, dst int, bytes float64), coll func(kind string, members []int, bytes float64)) {
	members := make([][]int, len(l.colls))
	for i, ci := range l.colls {
		members[i] = make([]int, 0, ci.size)
	}
	for r := 0; r < l.procs; r++ {
		for pc := l.start[r]; pc < l.start[r+1]; pc++ {
			if l.kind[pc] == opColl {
				members[l.arg[pc]] = append(members[l.arg[pc]], r)
			}
		}
	}
	for r := 0; r < l.procs; r++ {
		for pc := l.start[r]; pc < l.start[r+1]; pc++ {
			switch arg := l.arg[pc]; l.kind[pc] {
			case opSend:
				send(r, int(arg), l.values[l.val[pc]])
			case opColl:
				coll(collNames[l.colls[arg].kind], members[arg], l.values[l.val[pc]])
			}
		}
	}
}

// Recorder captures one run's op log: set it as Config.Record, run the
// world, then take Log. A Recorder records one run.
type Recorder struct {
	maxBytes  int64
	ranks     []rankLog
	ops       atomic.Int64 // ops charged against maxBytes so far
	abandoned atomic.Bool

	mu    sync.Mutex
	colls []collInstance // by record-time id, in completion order

	log *OpLog
}

// NewRecorder returns a recorder that abandons any log that would
// exceed maxBytes.
func NewRecorder(maxBytes int64) *Recorder { return &Recorder{maxBytes: maxBytes} }

// Log returns the recorded log: nil if the run failed or the recording
// was abandoned.
func (rec *Recorder) Log() *OpLog { return rec.log }

// Abandoned reports whether the recording stopped before the run ended:
// the log outgrew its bound, or the program's phase marks did not nest.
// Recording the same run again would stop the same way.
func (rec *Recorder) Abandoned() bool { return rec.abandoned.Load() }

func (rec *Recorder) begin(procs int) {
	rec.ranks = make([]rankLog, procs)
	for i := range rec.ranks {
		rec.ranks[i].rec = rec
	}
}

func (rec *Recorder) fail() { rec.abandoned.Store(true) }

// addColl numbers a completed collective instance.
func (rec *Recorder) addColl(ci collInstance) int32 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.colls = append(rec.colls, ci)
	return int32(len(rec.colls) - 1)
}

// finish compacts the per-rank streams of a completed run into the log,
// renumbering interned tables by first appearance in rank-major order.
func (rec *Recorder) finish() {
	ranks := rec.ranks
	rec.ranks = nil
	total := 0
	for i := range ranks {
		total += len(ranks[i].kind)
	}
	if rec.abandoned.Load() || int64(total)*opBytes > rec.maxBytes || total > math.MaxInt32 {
		rec.fail()
		return
	}
	l := &OpLog{
		procs: len(ranks),
		start: make([]int32, len(ranks)+1),
		kind:  make([]uint8, 0, total),
		arg:   make([]int32, 0, total),
		val:   make([]uint32, 0, total),
	}
	kernels := map[perfmodel.Kernel]int32{}
	phases := map[string]int32{}
	values := map[uint64]uint32{}
	value := func(v float64) uint32 {
		b := math.Float64bits(v)
		i, ok := values[b]
		if !ok {
			i = uint32(len(l.values))
			values[b] = i
			l.values = append(l.values, v)
		}
		return i
	}
	colls := make([]int32, len(rec.colls))
	for i := range colls {
		colls[i] = -1
	}
	for r := range ranks {
		rl := &ranks[r]
		l.start[r] = int32(len(l.kind))
		for i, k := range rl.kind {
			arg, v := rl.arg[i], rl.val[i]
			var val uint32
			switch k {
			case opCompute:
				kn := rl.kernels[arg]
				ki, ok := kernels[kn]
				if !ok {
					ki = int32(len(l.kernels))
					kernels[kn] = ki
					l.kernels = append(l.kernels, kn)
				}
				arg, val = ki, value(v)
			case opElapse, opSend:
				val = value(v)
			case opRecv:
				if v > math.MaxUint32 {
					rec.fail()
					return
				}
				val = uint32(v)
			case opColl:
				if colls[arg] < 0 {
					colls[arg] = int32(len(l.colls))
					l.colls = append(l.colls, rec.colls[arg])
				}
				arg, val = colls[arg], value(v)
			case opEnd:
				name := rl.phases[arg]
				pi, ok := phases[name]
				if !ok {
					pi = int32(len(l.phases))
					phases[name] = pi
					l.phases = append(l.phases, name)
				}
				arg, val = pi, uint32(v)
			}
			l.kind = append(l.kind, k)
			l.arg = append(l.arg, arg)
			l.val = append(l.val, val)
		}
	}
	l.start[len(ranks)] = int32(total)
	if l.Bytes() > rec.maxBytes {
		rec.fail()
		return
	}
	rec.log = l
}

// rankLog is one rank's op stream while recording, with raw values and
// rank-local kernel and phase tables. Only its own rank appends to it.
type rankLog struct {
	rec     *Recorder
	kind    []uint8
	arg     []int32
	val     []float64
	counted int // ops already added to rec.ops
	kernels []perfmodel.Kernel
	phases  []string
}

// add appends one op. Once the recording is abandoned a full rank log
// stops growing, so an oversized run costs at most a bounded overshoot.
func (l *rankLog) add(k uint8, arg int32, val float64) {
	if len(l.kind) == cap(l.kind) && !l.grow() {
		return
	}
	l.kind = append(l.kind, k)
	l.arg = append(l.arg, arg)
	l.val = append(l.val, val)
}

// grow doubles the rank log's capacity, first charging the ops logged
// since the last growth against the recorder's bound.
func (l *rankLog) grow() bool {
	rec := l.rec
	total := rec.ops.Add(int64(len(l.kind) - l.counted))
	l.counted = len(l.kind)
	if rec.abandoned.Load() || total*opBytes > rec.maxBytes {
		rec.fail()
		return false
	}
	more := max(cap(l.kind), 256)
	l.kind = slices.Grow(l.kind, more)
	l.arg = slices.Grow(l.arg, more)
	l.val = slices.Grow(l.val, more)
	return true
}

// kernel interns k in the rank-local table. Apps charge a handful of
// kernels, so a scan from the newest beats hashing the struct.
func (l *rankLog) kernel(k perfmodel.Kernel) int32 {
	for i := len(l.kernels) - 1; i >= 0; i-- {
		if l.kernels[i] == k {
			return int32(i)
		}
	}
	l.kernels = append(l.kernels, k)
	return int32(len(l.kernels) - 1)
}

// phase interns a phase name in the rank-local table.
func (l *rankLog) phase(name string) int32 {
	for i := len(l.phases) - 1; i >= 0; i-- {
		if l.phases[i] == name {
			return int32(i)
		}
	}
	l.phases = append(l.phases, name)
	return int32(len(l.phases) - 1)
}

// Price evaluates the log against cfg's machine and mapping and returns
// the Report that RunContext would return for the recorded program under
// cfg, bit for bit. It builds the network model exactly as RunContext
// does, so configuration errors are the same. cfg.Procs must be the
// recorded rank count; cfg.Record is ignored.
func (l *OpLog) Price(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("simmpi: nonpositive proc count %d", cfg.Procs)
	}
	if cfg.Procs != l.procs {
		return nil, fmt.Errorf("simmpi: pricing a %d-rank log at %d ranks", l.procs, cfg.Procs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "simmpi.price")
	defer sp.End()
	sp.SetAttr("machine", cfg.Machine.Name)
	sp.SetInt("procs", int64(cfg.Procs))
	sp.SetInt("ops", int64(l.Ops()))
	net, err := cfg.netModel()
	if err != nil {
		return nil, err
	}
	p := newPricer(l, cfg.Machine, net)
	if err := p.run(ctx); err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	accts := make([]*acct, l.procs)
	for i := range accts {
		accts[i] = &p.accts[i]
	}
	rep := buildReport(cfg, accts)
	sp.SetVirtual(float64(rep.Wall))
	return rep, nil
}

// pricer replays a log rank by rank. A rank runs until a receive whose
// message is not yet sent or a collective not every member has reached;
// the op that unblocks it puts it back on the ready stack.
type pricer struct {
	l     *OpLog
	spec  machine.Spec
	net   *netmodel.Model
	accts []acct
	pc    []int32

	arrive  [][]vtime.Seconds // per sender, arrival instants by send ordinal
	waitSrc []int32           // per rank: source of the blocked receive, or -1
	waitSeq []uint32          // per rank: send ordinal of the blocked receive
	marks   [][]vtime.Seconds // per rank: open phase marks, innermost last

	insts []instState
	next  []int32 // per rank: next waiter on the same collective instance
	ready []int32
}

// instState is one collective instance's rendezvous during pricing.
type instState struct {
	arrived  int32
	waiters  int32 // first parked member, -1 for none
	maxClock vtime.Seconds
}

func newPricer(l *OpLog, spec machine.Spec, net *netmodel.Model) *pricer {
	p := &pricer{
		l: l, spec: spec, net: net,
		accts:   make([]acct, l.procs),
		pc:      make([]int32, l.procs),
		arrive:  make([][]vtime.Seconds, l.procs),
		waitSrc: make([]int32, l.procs),
		waitSeq: make([]uint32, l.procs),
		marks:   make([][]vtime.Seconds, l.procs),
		insts:   make([]instState, len(l.colls)),
		next:    make([]int32, l.procs),
		ready:   make([]int32, 0, l.procs),
	}
	for r := l.procs - 1; r >= 0; r-- {
		p.pc[r] = l.start[r]
		p.waitSrc[r] = -1
		p.ready = append(p.ready, int32(r))
	}
	for i := range p.insts {
		p.insts[i] = instState{waiters: -1, maxClock: math.Inf(-1)}
	}
	return p
}

func (p *pricer) run(ctx context.Context) error {
	done := 0
	cancelled := ctx.Done()
	for len(p.ready) > 0 {
		select {
		case <-cancelled:
			return context.Cause(ctx)
		default:
		}
		r := p.ready[len(p.ready)-1]
		p.ready = p.ready[:len(p.ready)-1]
		if p.step(r) {
			done++
		}
	}
	if done < p.l.procs {
		return fmt.Errorf("simmpi: op log does not replay: %d of %d ranks never finish", p.l.procs-done, p.l.procs)
	}
	return nil
}

// step runs rank r until it blocks or ends, reporting whether it ended.
func (p *pricer) step(r int32) bool {
	l := p.l
	a := &p.accts[r]
	end := l.start[r+1]
	for pc := p.pc[r]; pc < end; pc++ {
		arg, val := l.arg[pc], l.val[pc]
		switch l.kind[pc] {
		case opCompute:
			a.compute(p.spec, l.kernels[arg], l.values[val])
		case opElapse:
			a.elapse(l.values[val])
		case opSend:
			p.arrive[r] = append(p.arrive[r], a.send(p.net, int(r), int(arg), l.values[val]))
			if p.waitSrc[arg] == r && int(p.waitSeq[arg]) < len(p.arrive[r]) {
				p.waitSrc[arg] = -1
				p.ready = append(p.ready, arg)
			}
		case opRecv:
			if int(val) >= len(p.arrive[arg]) {
				p.waitSrc[r], p.waitSeq[r] = arg, val
				p.pc[r] = pc
				return false
			}
			a.recv(p.net, p.arrive[arg][val])
		case opColl:
			st := &p.insts[arg]
			entry := a.clock.Now()
			if entry > st.maxClock {
				st.maxClock = entry
			}
			st.arrived++
			ci := l.colls[arg]
			if st.arrived < ci.size {
				p.next[r] = st.waiters
				st.waiters = r
				p.pc[r] = pc + 1
				return false
			}
			finish := ci.finish(p.net, st.maxClock)
			for w := st.waiters; w >= 0; w = p.next[w] {
				wa := &p.accts[w]
				wa.leave(wa.clock.Now(), finish)
				p.ready = append(p.ready, w)
			}
			a.leave(entry, finish)
		case opMark:
			p.marks[r] = append(p.marks[r], a.clock.Now())
		case opEnd:
			at := p.marks[r][val]
			p.marks[r] = p.marks[r][:val]
			a.endPhase(l.phases[arg], at)
		}
	}
	return true
}
