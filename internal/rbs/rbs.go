// Package rbs implements the paper's reservation-based scheduler (§3.1): a
// proportion/period dispatcher built on goodness-style selection, in the
// mold of the prototype's modified Linux 2.0.35 scheduling policy.
//
// Each registered thread holds a reservation: a proportion in
// parts-per-thousand of a period in milliseconds. Within each period the
// thread may consume proportion×period of CPU; when the budget is spent the
// thread "is put to sleep until its next period begins". Threads the policy
// knows nothing about (unregistered) run round-robin strictly below every
// registered thread, mirroring the prototype where only registered jobs use
// the RBS policy and everything else stays on the default scheduler.
//
// Dispatch-time enforcement is quantized to the timer tick exactly as the
// prototype's was ("the minimum allocation is 1 msec", §4.3). Setting
// PreciseAccounting emulates the paper's proposed improvement of
// microsecond-granularity accounting, and is benchmarked as an ablation.
//
// The dispatcher's hot path is O(log n) in the number of queued threads:
// the runnable set is an indexed heap of packed sort keys ordered by the
// discipline, period refresh is driven by a two-level period-boundary
// wheel threaded through a dense node array and drained at dispatch
// points instead of a full refresh scan per Pick (see heap.go), and the
// registered-proportion total is maintained incrementally. Both
// structures keep their hot data in contiguous arrays, so comparisons and
// bucket walks load a thread's state only when they must act on it. The
// resulting schedule is bit-identical to the legacy linear scan's (the
// Verify hook cross-checks every Pick against the scan order and audits
// the cached keys and wheel links from scratch).
package rbs

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// PPT is the denominator of proportions: parts per thousand, as in the
// paper ("a percentage, specified in parts-per-thousand").
const PPT = 1000

// Discipline selects how the dispatcher orders registered threads. The
// prototype used rate-monotonic goodness; the paper notes that "we could
// equally well have used other RBS mechanisms" — EDF is provided as the
// obvious alternative and as an ablation (EDF schedules any feasible task
// set up to full utilization, while RMS can miss beyond the Liu-Layland
// bound for non-harmonic periods).
type Discipline int

const (
	// RMS orders by period: shorter period, higher goodness (the paper's
	// prototype).
	RMS Discipline = iota
	// EDF orders by earliest current deadline (end of period).
	EDF
)

// Reservation is a proportion/period pair.
type Reservation struct {
	// Proportion is the share of the CPU in parts-per-thousand.
	Proportion int
	// Period is the repeating deadline over which the proportion is owed.
	Period sim.Duration
}

// Budget returns the CPU time the reservation grants per period.
func (r Reservation) Budget() sim.Duration {
	return sim.Duration(int64(r.Period) * int64(r.Proportion) / PPT)
}

func (r Reservation) String() string {
	return fmt.Sprintf("%d/1000 over %v", r.Proportion, r.Period)
}

// state is the per-thread scheduling state. Its fields are sized so the
// whole object is 128 bytes on 64-bit hosts: states are carved from
// page-aligned slabs, so each one occupies one aligned pair of cache
// lines, and a period roll — the dispatcher's most frequent touch of a
// state it has not seen lately — loads that pair instead of straddling
// three or four lines (TestStateIsTwoCacheLines pins the size).
type state struct {
	res Reservation

	periodStart sim.Time
	budget      sim.Duration // remaining allocation this period
	used        sim.Duration // consumed this period
	// perBudget caches res.Budget() so the per-period roll does no
	// multiply/divide; SetReservation keeps it in sync.
	perBudget sim.Duration
	missed    uint64

	// seq reconstructs the legacy runnable-slice order: assigned when the
	// thread enters the queue and reassigned on round-robin rotation, so
	// FIFO-among-equals tie-breaking matches the linear scan exactly.
	seq uint64
	// t is the thread this state schedules, so the dispatch structures
	// can hold states and reach the thread in one load.
	t *kernel.Thread

	// id indexes the policy's dense wheel arrays (wn, ws). It is assigned
	// when the state is carved from a slab and kept across recycling; 0 is
	// reserved as the nil link.
	id uint32
	// heapIdx/exhIdx track the thread's positions in the ready heap and
	// the exhausted list (-1 = absent).
	heapIdx int32
	exhIdx  int32
	// boundLevel/boundSlot/boundIdx track the thread's entry in the
	// two-level period-boundary wheel (L1/L2 bucket or overflow heap, see
	// heap.go); the filed key and the bucket links live in wn[id].
	boundIdx   int32
	boundSlot  int16
	boundLevel uint8

	registered bool
	queued     bool
	napping    bool // asleep on budget exhaustion (not a voluntary sleep)
	// counted marks threads included in the incremental proportion total.
	counted bool

	// rrUsed is quantum usage for unregistered threads.
	rrUsed sim.Duration

	// freeNext links the object into the policy's free list while pooled
	// (recycle mode only).
	freeNext *state

	_ [16]byte // pads the state to two cache lines on 64-bit hosts
}

// Policy is the reservation-based dispatcher.
type Policy struct {
	k *kernel.Kernel

	// PreciseAccounting ends run segments exactly at budget exhaustion
	// instead of at the next dispatch tick (§4.3's proposed improvement).
	PreciseAccounting bool
	// Discipline orders registered threads: RMS (default) or EDF.
	Discipline Discipline
	// UnmanagedQuantum is the round-robin quantum for unregistered threads.
	UnmanagedQuantum sim.Duration
	// Verify cross-checks every Pick against the legacy O(n) linear scan
	// and panics on divergence. Testing hook; leave false in production.
	Verify bool

	// shards holds the per-CPU dispatch structures (ready heap, boundary
	// wheel, exhausted list), indexed by kernel CPU id. Admission state —
	// the registered-proportion total, sequence numbers, missed-deadline
	// counts — stays global: the paper's overload signal sums over the
	// whole machine.
	shards []shard
	slotW  int64
	// wn and ws are the boundary wheel's dense node array and the state
	// owning each node, both indexed by state id; index 0 is the nil
	// sentinel. Bucket walks read wn only and touch ws for due entries.
	wn []wheelNode
	ws []*state

	seqGen    uint64
	totalProp int
	// needResched flags CPUs whose current thread was beaten by an
	// enqueue; the kernel's per-CPU tick hook consumes them.
	needResched []bool
	missedTotal uint64

	// stSlab is the chunk backing new per-thread states; freeState heads
	// the free list of recycled ones (recycle mode only).
	stSlab    []state
	freeState *state
	// recycle pools a thread's state at RemoveThread (see SetRecycle).
	recycle bool
}

// shardOf returns the shard of t's assigned CPU.
func (p *Policy) shardOf(t *kernel.Thread) *shard { return &p.shards[t.CPU()] }

// New returns a reservation-based policy with the prototype's defaults.
func New() *Policy {
	return &Policy{UnmanagedQuantum: 10 * sim.Millisecond}
}

// Name implements kernel.Policy.
func (p *Policy) Name() string { return "rbs" }

// Attach implements kernel.Policy. The boundary wheel's slot width is the
// kernel tick: dispatch points arrive at least once per tick, so the wheel
// cursor advances at most one slot per dispatch.
func (p *Policy) Attach(k *kernel.Kernel) {
	p.k = k
	p.slotW = int64(k.Config().TickInterval)
	p.shards = make([]shard, k.NumCPUs())
	p.needResched = make([]bool, k.NumCPUs())
	p.wn = make([]wheelNode, 1)
	p.ws = make([]*state, 1)
	for i := range p.shards {
		p.shards[i].curSlot = int64(k.Now()) / p.slotW
	}
}

// Kernel returns the kernel this policy is attached to.
func (p *Policy) Kernel() *kernel.Kernel { return p.k }

func stateOf(t *kernel.Thread) *state { return t.Sched.(*state) }

// SetRecycle turns per-thread state recycling on or off. When on, a
// thread's state object returns to a free pool at RemoveThread (thread
// exit) and its Sched slot is nilled; the read-only accessors then report
// the unregistered zero for exited threads instead of their final values.
// Callers that inspect exited threads' scheduling state after a run — the
// proportion-delivery property tests do — must leave it off (the default).
func (p *Policy) SetRecycle(on bool) { p.recycle = on }

// stateSlabSize is how many per-thread state objects one slab chunk holds.
const stateSlabSize = 256

// allocState returns a fresh unregistered state: from the free pool when
// recycling has banked one, otherwise carved from the current slab chunk.
func (p *Policy) allocState() *state {
	if st := p.freeState; st != nil {
		p.freeState = st.freeNext
		*st = state{id: st.id, heapIdx: -1, exhIdx: -1, boundLevel: levelNone, boundSlot: boundNone, boundIdx: -1}
		return st
	}
	if len(p.stSlab) == 0 {
		p.stSlab = make([]state, stateSlabSize)
	}
	st := &p.stSlab[0]
	p.stSlab = p.stSlab[1:]
	st.id = uint32(len(p.wn))
	p.wn = append(p.wn, wheelNode{})
	p.ws = append(p.ws, st)
	st.heapIdx, st.exhIdx = -1, -1
	st.boundLevel, st.boundSlot, st.boundIdx = levelNone, boundNone, -1
	return st
}

// AddThread implements kernel.Policy: new threads start unregistered.
func (p *Policy) AddThread(t *kernel.Thread, now sim.Time) {
	st := p.allocState()
	st.t = t
	t.Sched = st
}

// RemoveThread implements kernel.Policy. The thread leaves the proportion
// total here rather than in the controller's exit-hook teardown, matching
// the old full-scan TotalProportion which skipped exited threads on every
// call.
// The kernel guarantees the thread is already out of every dispatch
// structure (Dequeue runs first on the exit path), so nothing in the shard
// still references the state: it drops its thread back-pointer here, and
// in recycle mode the state object, with its wheel node id, is pooled.
func (p *Policy) RemoveThread(t *kernel.Thread, now sim.Time) {
	st, ok := t.Sched.(*state)
	if !ok {
		return
	}
	if st.counted {
		p.totalProp -= st.res.Proportion
		st.counted = false
	}
	st.t = nil
	if p.recycle {
		t.Sched = nil
		st.freeNext = p.freeState
		p.freeState = st
	}
}

// SetReservation registers t (if needed) and installs a reservation. A
// proportion increase takes effect immediately within the current period; a
// decrease caps the remaining budget. Changing the period restarts the
// period phase at the current instant.
func (p *Policy) SetReservation(t *kernel.Thread, res Reservation) error {
	if res.Proportion < 0 || res.Proportion > PPT {
		return fmt.Errorf("rbs: proportion %d out of [0,%d]", res.Proportion, PPT)
	}
	if res.Period <= 0 {
		return fmt.Errorf("rbs: non-positive period %v", res.Period)
	}
	now := p.k.Now()
	st, ok := t.Sched.(*state)
	if !ok {
		// Recycled (exited) thread: installing a reservation on a thread
		// with no scheduling state is the same silent no-op it always was
		// on an exited, un-recycled one — nothing is queued, nothing wakes.
		return nil
	}
	if !st.registered || st.res.Period != res.Period {
		if st.counted {
			p.totalProp += res.Proportion - st.res.Proportion
		} else if t.State() != kernel.StateExited {
			p.totalProp += res.Proportion
			st.counted = true
		}
		st.registered = true
		st.res = res
		st.perBudget = res.Budget()
		st.periodStart = now
		st.budget = st.perBudget
		st.used = 0
	} else {
		if st.counted {
			p.totalProp += res.Proportion - st.res.Proportion
		}
		st.res = res
		st.perBudget = res.Budget()
		p.refresh(st, now)
		// Re-derive the remaining budget from the new proportion so total
		// usage this period tops out at the new allocation.
		b := res.Budget() - st.used
		if b < 0 {
			b = 0
		}
		st.budget = b
	}
	p.reconcile(t, st)
	if st.napping && st.budget > 0 {
		// The nap was based on the old, smaller allocation.
		st.napping = false
		p.k.Wake(t)
	}
	return nil
}

// ReservationOf returns t's reservation and whether it is registered. A
// recycled (exited) thread reads as unregistered.
func (p *Policy) ReservationOf(t *kernel.Thread) (Reservation, bool) {
	st, ok := t.Sched.(*state)
	if !ok {
		return Reservation{}, false
	}
	return st.res, st.registered
}

// Unregister returns t to the unmanaged round-robin class. Unregistering a
// recycled (exited) thread is a no-op.
func (p *Policy) Unregister(t *kernel.Thread) {
	st, ok := t.Sched.(*state)
	if !ok {
		return
	}
	if st.counted {
		p.totalProp -= st.res.Proportion
		st.counted = false
	}
	st.registered = false
	st.res = Reservation{}
	p.reconcile(t, st)
}

// MissedDeadlines returns the count of periods that ended with a runnable
// thread still holding unused budget — the dispatcher could not deliver the
// allocation. The prototype notifies the controller of misses so it can
// grow the spare capacity; the controller polls this counter.
func (p *Policy) MissedDeadlines() uint64 { return p.missedTotal }

// TotalProportion sums the proportions of all registered live threads, the
// paper's overload signal ("one can easily detect overload by summing the
// proportions"). The sum is maintained incrementally by SetReservation,
// Unregister, and thread exit, so admission-control checks are O(1)
// instead of a scan over every thread ever created.
func (p *Policy) TotalProportion() int { return p.totalProp }

// refresh rolls st's period forward to contain now, refilling the budget and
// recording deadline misses. The roll is closed-form over the k periods
// that ended (the legacy loop rolled one at a time): the first ended
// period misses iff the thread was queued with budget left, and each
// further one iff it was queued with a non-empty refill. Callers with st in
// the queue must re-fix the priority structures afterwards (roll does
// both).
func (p *Policy) refresh(st *state, now sim.Time) {
	if !st.registered {
		return
	}
	elapsed := now.Sub(st.periodStart)
	if elapsed < st.res.Period {
		return
	}
	k := int64(elapsed / st.res.Period)
	if st.queued {
		var miss uint64
		if st.budget > 0 {
			miss++
		}
		if k > 1 && st.perBudget > 0 {
			miss += uint64(k - 1)
		}
		st.missed += miss
		p.missedTotal += miss
	}
	st.periodStart = st.periodStart.Add(sim.Duration(k * int64(st.res.Period)))
	st.budget = st.perBudget
	st.used = 0
}

// roll is refresh plus structure maintenance: after the period rolls, the
// boundary entry moves to its new slot, an exhausted thread whose budget
// refilled rejoins the ready heap, and an EDF deadline change reorders the
// ready heap.
func (p *Policy) roll(t *kernel.Thread, st *state, now sim.Time) {
	if !st.registered || now.Sub(st.periodStart) < st.res.Period {
		return
	}
	if !st.queued {
		p.refresh(st, now)
		return
	}
	sh := p.shardOf(t)
	p.boundRemove(sh, st)
	p.rollDue(sh, st, now)
}

// rollDue rolls a queued registered thread whose boundary entry has been
// taken out of the wheel, and refiles it.
func (p *Policy) rollDue(sh *shard, st *state, now sim.Time) {
	wasExhausted := st.exhIdx >= 0
	p.refresh(st, now)
	p.boundInsert(sh, st)
	if wasExhausted && st.budget > 0 {
		exhRemove(sh, st)
		p.readyPush(sh, st)
	} else if p.Discipline == EDF {
		p.readyFix(sh, st)
	}
}

// reconcile re-derives t's structure memberships and keys from its state,
// after SetReservation/Unregister mutate the reservation arbitrarily.
func (p *Policy) reconcile(t *kernel.Thread, st *state) {
	if !st.queued {
		return
	}
	sh := p.shardOf(t)
	p.boundRemove(sh, st)
	if st.registered {
		p.boundInsert(sh, st)
	}
	if !st.registered || st.budget > 0 {
		exhRemove(sh, st)
		if st.heapIdx < 0 {
			p.readyPush(sh, st)
		} else {
			p.readyFix(sh, st)
		}
	} else {
		readyRemove(sh, st)
		exhAdd(sh, st)
	}
}

func (p *Policy) periodEnd(st *state) sim.Time {
	return st.periodStart.Add(st.res.Period)
}

// goodness ranks runnable threads: registered threads with budget beat
// everything, and "jobs with shorter periods have higher goodness values"
// (rate-monotonic order). Unregistered threads share a low flat score.
func (p *Policy) goodness(t *kernel.Thread) int64 {
	st := stateOf(t)
	if st.registered {
		if st.budget <= 0 {
			return 0
		}
		g := int64(1) << 40
		return g - clampedPeriodMs(st)
	}
	return 1000
}

// Enqueue implements kernel.Policy: the thread joins its assigned CPU's
// shard.
func (p *Policy) Enqueue(t *kernel.Thread, now sim.Time) {
	st := stateOf(t)
	st.napping = false
	p.refresh(st, now)
	if st.queued {
		return
	}
	sh := p.shardOf(t)
	st.queued = true
	st.seq = p.seqGen
	p.seqGen++
	if st.registered {
		p.boundInsert(sh, st)
		if st.budget > 0 {
			p.readyPush(sh, st)
		} else {
			exhAdd(sh, st)
		}
	} else {
		p.readyPush(sh, st)
	}
	if cur := p.k.CurrentOn(t.CPU()); cur != nil && p.better(t, cur) {
		p.needResched[t.CPU()] = true
	}
}

// Dequeue implements kernel.Policy.
func (p *Policy) Dequeue(t *kernel.Thread, now sim.Time) {
	st := stateOf(t)
	if !st.queued {
		return
	}
	sh := p.shardOf(t)
	st.queued = false
	readyRemove(sh, st)
	p.boundRemove(sh, st)
	exhRemove(sh, st)
}

// Steal implements kernel.Policy: hand over a migratable runnable thread
// from the given CPU's ready heap, dequeued. The heap array is scanned in
// index order, so the heap top — the thread that would run there next —
// is preferred when movable.
func (p *Policy) Steal(from int, now sim.Time) *kernel.Thread {
	cur := p.k.CurrentOn(from)
	for _, e := range p.shards[from].ready {
		if t := e.st.t; kernel.Movable(t, cur) {
			p.Dequeue(t, now)
			return t
		}
	}
	return nil
}

// better reports whether a should be dispatched ahead of b under the
// configured discipline. Registered threads with budget always beat
// unmanaged ones.
func (p *Policy) better(a, b *kernel.Thread) bool {
	if p.Discipline == RMS {
		return p.goodness(a) > p.goodness(b)
	}
	sa, sb := stateOf(a), stateOf(b)
	ra := sa.registered && sa.budget > 0
	rb := sb.registered && sb.budget > 0
	switch {
	case ra && !rb:
		return true
	case !ra && rb:
		return false
	case !ra && !rb:
		return false // FIFO among unmanaged: keep the earlier one
	default:
		return p.periodEnd(sa).Before(p.periodEnd(sb))
	}
}

// Pick implements kernel.Policy: the best thread under the discipline
// wins. Registered threads that are runnable with an exhausted budget are
// napped until their next period as a side effect.
//
// Instead of refreshing every runnable thread per dispatch, Pick drains
// the due entries of the period-boundary wheel (refresh runs once per
// period per thread, at O(1) amortized structure cost), naps the
// exhausted list, and takes the ready heap top: O(log n) where the legacy
// scan was O(n) on every dispatch.
func (p *Policy) Pick(cpu int, now sim.Time) *kernel.Thread {
	sh := &p.shards[cpu]
	p.boundDrain(sh, now)
	if n := len(sh.exhausted); n > 0 {
		// Detach each entry before napping it so SleepThreadUntil's Dequeue
		// skips the list and the whole drain is O(n), in enqueue order (nap
		// order fixes timer order at equal deadlines, hence wake order).
		for i := 0; i < n; i++ {
			st := sh.exhausted[i]
			sh.exhausted[i] = nil
			st.exhIdx = -1
			st.napping = true
			p.k.SleepThreadUntil(st.t, p.periodEnd(st))
		}
		sh.exhausted = sh.exhausted[:0]
	}
	if p.Verify {
		p.verifyPick(sh, now)
	}
	return readyTop(sh)
}

// verifyPick replays the legacy linear scan — runnable threads in slice
// (enqueue) order, first-best wins via better() — and panics if the heap
// disagrees. It also asserts the invariants the heap relies on: every due
// period has been rolled and no exhausted thread lingers in the ready set.
// Before the scan it audits, from scratch, the cached state the fast
// paths trust: every ready entry's packed key and heap index, and the
// shard's boundary wheel (auditWheel).
func (p *Policy) verifyPick(sh *shard, now sim.Time) {
	scan := make([]*kernel.Thread, len(sh.ready))
	for i, e := range sh.ready {
		st := e.st
		if st.t == nil || stateOf(st.t) != st {
			panic(fmt.Sprintf("rbs: verify: ready entry %d holds a detached state", i))
		}
		if want := p.readyKey(st); e.k != want {
			panic(fmt.Sprintf("rbs: verify: ready key of %v is %#x, recomputed %#x", st.t, e.k, want))
		}
		if int(st.heapIdx) != i {
			panic(fmt.Sprintf("rbs: verify: %v sits at heap index %d, state says %d", st.t, i, st.heapIdx))
		}
		scan[i] = st.t
	}
	p.auditWheel(sh)
	sort.Slice(scan, func(i, j int) bool {
		return stateOf(scan[i]).seq < stateOf(scan[j]).seq
	})
	var best *kernel.Thread
	for _, t := range scan {
		st := stateOf(t)
		if st.registered && now.Sub(st.periodStart) >= st.res.Period {
			panic(fmt.Sprintf("rbs: verify: %v has an unrolled period at Pick", t))
		}
		if st.registered && st.budget <= 0 {
			panic(fmt.Sprintf("rbs: verify: exhausted %v in ready heap", t))
		}
		if best == nil || p.better(t, best) {
			best = t
		}
	}
	if top := readyTop(sh); top != best {
		panic(fmt.Sprintf("rbs: verify: heap picked %v, scan picked %v", top, best))
	}
}

// auditWheel re-derives sh's boundary wheel from scratch and panics on any
// divergence: bucket links must be symmetric, every filed node must sit
// where its state says under the key periodEnd gives, every queued
// registered thread must be filed exactly once and nothing else at all,
// and curMin must not exceed any key in the current slot.
func (p *Policy) auditWheel(sh *shard) {
	filed := make(map[uint32]int)
	file := func(id uint32, level uint8, pos int) {
		if filed[id]++; filed[id] > 1 {
			panic(fmt.Sprintf("rbs: verify: wheel node %d filed more than once", id))
		}
		st := p.ws[id]
		if !st.queued || !st.registered {
			panic(fmt.Sprintf("rbs: verify: wheel node %d filed for a thread that is not queued and registered", id))
		}
		t := st.t
		at := int(st.boundSlot)
		if level == levelHeap {
			at = int(st.boundIdx)
		}
		if st.id != id || st.boundLevel != level || at != pos {
			panic(fmt.Sprintf("rbs: verify: %v filed at level %d position %d, state says node %d level %d position %d",
				t, level, pos, st.id, st.boundLevel, at))
		}
		if k, want := p.wn[id].key, p.periodEnd(st); k != want {
			panic(fmt.Sprintf("rbs: verify: wheel node key of %v is %v, period end %v", t, k, want))
		}
	}
	walk := func(buckets *[bwSlots]uint32, level uint8) {
		for b, head := range buckets {
			prev := uint32(0)
			for id := head; id != 0; id = p.wn[id].next {
				if p.wn[id].prev != prev {
					panic(fmt.Sprintf("rbs: verify: wheel link asymmetry: node %d links back to %d, follows %d",
						id, p.wn[id].prev, prev))
				}
				file(id, level, b)
				prev = id
			}
		}
	}
	walk(&sh.buckets, levelL1)
	walk(&sh.buckets2, levelL2)
	for i, id := range sh.overflow {
		file(id, levelHeap, i)
	}
	queued := 0
	check := func(st *state) {
		queued++
		if n := filed[st.id]; n != 1 {
			panic(fmt.Sprintf("rbs: verify: queued registered %v filed %d times", st.t, n))
		}
	}
	for _, st := range sh.exhausted {
		check(st)
	}
	for _, e := range sh.ready {
		if e.st.registered {
			check(e.st)
		}
	}
	if len(filed) != queued {
		panic(fmt.Sprintf("rbs: verify: wheel files %d nodes for %d queued registered threads", len(filed), queued))
	}
	for id := sh.buckets[sh.curSlot&bwMask]; id != 0; id = p.wn[id].next {
		if k := p.wn[id].key; k < sh.curMin {
			panic(fmt.Sprintf("rbs: verify: curMin %v above current-slot key %v", sh.curMin, k))
		}
	}
}

// TimeSlice implements kernel.Policy. For registered threads the slice is
// the remaining budget — rounded up to whole dispatch ticks unless
// PreciseAccounting is set, reproducing the prototype's quantization.
func (p *Policy) TimeSlice(t *kernel.Thread, now sim.Time) sim.Duration {
	st := stateOf(t)
	if !st.registered {
		rem := p.UnmanagedQuantum - st.rrUsed
		if rem < 0 {
			rem = 0
		}
		return rem
	}
	p.roll(t, st, now)
	if st.budget <= 0 {
		return 0
	}
	if p.PreciseAccounting {
		return st.budget
	}
	tick := p.k.Config().TickInterval
	n := (int64(st.budget) + int64(tick) - 1) / int64(tick)
	return sim.Duration(n) * tick
}

// Charge implements kernel.Policy: decrement the budget and nap the thread
// until its next period once the allocation is spent.
func (p *Policy) Charge(t *kernel.Thread, cpu int, ran sim.Duration, now sim.Time) bool {
	st := stateOf(t)
	if !st.registered {
		st.rrUsed += ran
		if st.rrUsed >= p.UnmanagedQuantum {
			st.rrUsed = 0
			p.rotate(t)
			return true
		}
		return false
	}
	p.roll(t, st, now)
	st.used += ran
	st.budget -= ran
	if st.budget <= 0 {
		st.budget = 0
		if t.Runnable() {
			st.napping = true
			p.k.SleepThreadUntil(t, p.periodEnd(st))
		} else if st.queued {
			// Stays queued with a spent budget (the legacy scan kept such
			// threads in the runnable slice); Pick naps it next dispatch.
			sh := p.shardOf(t)
			readyRemove(sh, st)
			exhAdd(sh, st)
		}
		return true
	}
	return false
}

// rotate moves an unmanaged thread behind every other unmanaged thread on
// its CPU, the round-robin step at quantum expiry. Reassigning the enqueue
// sequence is exactly the legacy move-to-back of the runnable slice.
func (p *Policy) rotate(t *kernel.Thread) {
	st := stateOf(t)
	if !st.queued {
		return
	}
	st.seq = p.seqGen
	p.seqGen++
	p.readyFix(p.shardOf(t), st)
}

// Tick implements kernel.Policy.
func (p *Policy) Tick(cpu int, now sim.Time) bool {
	r := p.needResched[cpu]
	p.needResched[cpu] = false
	return r
}

// WakePreempts implements kernel.Policy: the prototype preempts "if the
// woken thread is under our control and has higher goodness".
func (p *Policy) WakePreempts(woken, current *kernel.Thread, now sim.Time) bool {
	return p.better(woken, current)
}
