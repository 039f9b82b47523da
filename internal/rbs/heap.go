// Cache-resident priority structures for the dispatcher's hot path, one
// set per CPU (a shard). The ready heap stores each queued thread's packed
// sort key beside a pointer to its scheduling state, so a sift compares
// keys inside the heap array and loads a state only to break an exact key
// tie. The period-boundary wheel threads its buckets through a dense node
// array indexed by state id with uint32 links, so a bucket walk reads 16
// bytes per entry and touches a state only when its period is due.
// Positions (heapIdx/boundSlot/boundIdx/exhIdx) live in the scheduling
// state, so membership tests and removals are O(1)+O(log n) with no
// allocation and no linear scans.
//
// Ordering must reproduce the legacy linear scan bit-for-bit: the scan
// picked the *first* best thread in runnable-slice order, and slice order
// was insertion order (append on Enqueue, move-to-back on rotate, with
// order-preserving removals). A monotonically increasing sequence number,
// assigned on Enqueue and reassigned on rotate, reconstructs exactly that
// order, so every comparison ties break FIFO-among-equals like the scan.
package rbs

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// readyEnt is one ready-heap entry: a queued thread's state and its
// readyKey.
type readyEnt struct {
	k  uint64
	st *state
}

// wheelNode is a state's boundary-wheel entry in the policy's dense node
// array, indexed by state id: the period end it is filed under and its
// bucket-list links (state ids; 0 is nil).
type wheelNode struct {
	key        sim.Time
	next, prev uint32
}

// shard is one CPU's dispatch state: the ready heap, the two-level
// period-boundary wheel with its overflow heap, and the exhausted list.
// Threads live in the shard of their assigned CPU (kernel.Thread.CPU());
// the kernel only reassigns a thread between shards while it is dequeued.
type shard struct {
	// ready is the indexed heap of dispatchable queued threads: registered
	// threads with budget and the unmanaged round-robin class below them.
	ready []readyEnt
	// buckets/buckets2/overflow/curSlot form the period-boundary wheel of
	// the queued registered threads whose rolls are eager — exhausted
	// threads, and under EDF every one — by next period end; Pick drains
	// the due entries instead of refreshing every runnable thread. Lazy
	// threads (RMS, in the ready heap) are not filed. Each bucket is
	// the head id of a doubly linked list through Policy.wn. Level 1 spans
	// one kernel tick per slot; level 2 spans bwSlots ticks per slot, so
	// any boundary within bwSlots² ticks (≈65 s at a 1 ms tick) files in
	// O(1); only boundaries beyond that fall back to the overflow min-heap.
	buckets  [bwSlots]uint32
	buckets2 [bwSlots]uint32
	overflow []uint32
	curSlot  int64
	// exhausted lists queued registered threads with spent budgets, in
	// enqueue order; Pick naps them until their next period begins.
	exhausted []*state
	// curMin is a conservative lower bound on the smallest key filed in
	// the current cursor slot's L1 bucket: while curMin > now, no entry
	// there is due and boundDrain skips the bucket walk entirely. The walk
	// that visits the current slot lowers it from the survivors, inserts
	// into the current slot lower it, and removals leave it stale-low,
	// which only costs a wasted walk, never a late roll. Without the bound
	// every dispatch re-walks the full current-slot bucket — with
	// thousands of short-period threads sharing one tick-wide slot, that
	// scan dominated the dispatch profile at 100k-session scale.
	curMin sim.Time
	// drained is the instant of the shard's last Pick. An eager wheel
	// would have rolled every queued registered thread to it, so a lazy
	// thread counts as rolled to drained: catch-ups and the settling read
	// of MissedDeadlines roll it there.
	drained sim.Time
}

// timeMax is the +∞ sentinel for curMin when the current slot is empty.
const timeMax = sim.Time(1<<63 - 1)

// Ready-key layout. The key is the strict-weak-order completion of
// better(), packed so that one integer comparison decides almost every
// pair: registered threads with budget sort below unmanagedKey (RMS by
// clamped period then enqueue sequence, EDF by period end), and every
// other queued thread above it by enqueue sequence.
const (
	seqBits      = 42
	seqMax       = 1<<seqBits - 1
	unmanagedKey = uint64(1) << 63
)

// readyKey packs st's ready-heap order. Sequence numbers saturate at
// seqMax; equal keys fall back to the full sequence in readyLess, so the
// order stays exact under EDF (whose key carries no sequence) and past
// saturation.
func (p *Policy) readyKey(st *state) uint64 {
	seq := st.seq
	if seq > seqMax {
		seq = seqMax
	}
	if !st.registered || st.budget <= 0 {
		return unmanagedKey | seq
	}
	if p.Discipline == RMS {
		return uint64(clampedPeriodMs(st))<<seqBits | seq
	}
	return uint64(p.periodEnd(st))
}

// readyLess orders the ready heap: the thread that should dispatch first
// is the heap top. Only an exact key tie loads the threads' state.
func readyLess(a, b readyEnt) bool {
	if a.k != b.k {
		return a.k < b.k
	}
	return a.st.seq < b.st.seq
}

// clampedPeriodMs is the period in whole milliseconds with the same
// clamping goodness() applies, so RMS heap order matches goodness order
// exactly (including periods that collapse to the same clamped value).
func clampedPeriodMs(st *state) int64 {
	ms := int64(st.res.Period / sim.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<20 {
		ms = 1 << 20
	}
	return ms
}

// --- ready heap: queued threads eligible to run ---

func (p *Policy) readyPush(sh *shard, st *state) {
	i := len(sh.ready)
	sh.ready = append(sh.ready, readyEnt{k: p.readyKey(st), st: st})
	readyUp(sh, i)
}

func readyRemove(sh *shard, st *state) {
	i := int(st.heapIdx)
	if i < 0 {
		return
	}
	st.heapIdx = -1
	last := len(sh.ready) - 1
	moved := sh.ready[last]
	sh.ready[last] = readyEnt{} // clear the vacated tail slot
	sh.ready = sh.ready[:last]
	if i == last {
		return
	}
	sh.ready[i] = moved
	readyFixAt(sh, i)
}

// readyFix re-keys st's entry after its order inputs changed in place and
// restores the heap property.
func (p *Policy) readyFix(sh *shard, st *state) {
	if i := int(st.heapIdx); i >= 0 {
		sh.ready[i].k = p.readyKey(st)
		readyFixAt(sh, i)
	}
}

func readyFixAt(sh *shard, i int) {
	if !readyDown(sh, i) {
		readyUp(sh, i)
	}
}

func readyTop(sh *shard) *kernel.Thread {
	if len(sh.ready) == 0 {
		return nil
	}
	return sh.ready[0].st.t
}

func readyUp(sh *shard, i int) {
	e := sh.ready[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(e, sh.ready[parent]) {
			break
		}
		sh.ready[i] = sh.ready[parent]
		sh.ready[i].st.heapIdx = int32(i)
		i = parent
	}
	sh.ready[i] = e
	e.st.heapIdx = int32(i)
}

func readyDown(sh *shard, i int) bool {
	e := sh.ready[i]
	n := len(sh.ready)
	moved := false
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && readyLess(sh.ready[r], sh.ready[kid]) {
			kid = r
		}
		if !readyLess(sh.ready[kid], e) {
			break
		}
		sh.ready[i] = sh.ready[kid]
		sh.ready[i].st.heapIdx = int32(i)
		i = kid
		moved = true
	}
	sh.ready[i] = e
	e.st.heapIdx = int32(i)
	return moved
}

// --- period-boundary wheel: eagerly rolled threads by period end ---
//
// Period refresh must run, before a dispatch reads the ready heap, for
// every queued registered thread whose roll can change that dispatch: an
// exhausted thread (the roll refills it into the heap) and, under EDF,
// every registered thread (the heap key is the period end). Under RMS a
// ready thread's roll changes no key — its budget is above zero before
// and after — so it is lazy and not filed: the thread is rolled when next
// touched, and MissedDeadlines rolls the rest when the ledger is read.
// With thousands of oversubscribed threads, the filed boundaries still
// pass at up to Σ 1/periodᵢ per second, so an ordered heap would pay an
// O(log n) sift per roll and dominate the profile. Period ends are timer
// deadlines, so they get the same treatment as the sim engine's event
// queue: a hierarchical timer wheel. Level 1 has bwSlots buckets of one
// kernel tick each; level 2 has bwSlots buckets of bwSlots ticks each, so
// boundaries up to bwSlots² ticks out (≈65 s at a 1 ms tick) insert and
// remove in O(1) — L2 entries cascade into L1 as the cursor crosses their
// span. Only boundaries beyond the L2 horizon go to the overflow min-heap.
// Order within a bucket is irrelevant to which entries roll — every due
// entry is rolled before Pick reads the ready heap — but it fixes the
// order of the rolls, and with it the ready heap's layout, so buckets are
// LIFO lists whose removals keep the survivors' order.

const (
	bwSlots = 256
	bwMask  = bwSlots - 1
	bwBits  = 8 // log2(bwSlots): shift from an L1 slot to its L2 span

	// boundNone is the boundSlot sentinel for "not filed"; values >= 0 are
	// bucket indices within the level named by boundLevel.
	boundNone = -1
)

// Wheel levels, stored in state.boundLevel.
const (
	levelNone uint8 = iota
	levelL1
	levelL2
	levelHeap
)

// boundInsert files st under its current period end in sh. The thread
// must be queued, registered, not lazy, and not already filed. Filing and
// unfiling never allocate no matter how boundaries cluster.
func (p *Policy) boundInsert(sh *shard, st *state) {
	key := p.periodEnd(st)
	p.wn[st.id].key = key
	slot := int64(key) / p.slotW
	if slot < sh.curSlot {
		slot = sh.curSlot // defensive; the key is re-checked when draining
	}
	if slot < sh.curSlot+bwSlots {
		p.bucketLink(&sh.buckets, st, levelL1, int(slot&bwMask))
		if slot == sh.curSlot && key < sh.curMin {
			sh.curMin = key
		}
		return
	}
	if slot>>bwBits < (sh.curSlot>>bwBits)+bwSlots {
		p.bucketLink(&sh.buckets2, st, levelL2, int((slot>>bwBits)&bwMask))
		return
	}
	st.boundLevel = levelHeap
	i := len(sh.overflow)
	sh.overflow = append(sh.overflow, st.id)
	p.overflowUp(sh, i)
}

// bucketLink pushes st's node onto the head of a wheel bucket's list.
func (p *Policy) bucketLink(buckets *[bwSlots]uint32, st *state, level uint8, b int) {
	st.boundLevel = level
	st.boundSlot = int16(b)
	id := st.id
	n := &p.wn[id]
	n.prev = 0
	n.next = buckets[b]
	if n.next != 0 {
		p.wn[n.next].prev = id
	}
	buckets[b] = id
}

func (p *Policy) boundRemove(sh *shard, st *state) {
	switch st.boundLevel {
	case levelNone:
		return
	case levelHeap:
		p.overflowRemove(sh, st)
	case levelL1, levelL2:
		buckets := &sh.buckets
		if st.boundLevel == levelL2 {
			buckets = &sh.buckets2
		}
		n := &p.wn[st.id]
		if n.prev != 0 {
			p.wn[n.prev].next = n.next
		} else {
			buckets[st.boundSlot] = n.next
		}
		if n.next != 0 {
			p.wn[n.next].prev = n.prev
		}
		n.prev, n.next = 0, 0
	}
	st.boundLevel = levelNone
	st.boundSlot = boundNone
	st.boundIdx = -1
}

// boundDrain rolls every filed thread in sh whose period ended at or
// before now, and records now as the instant the shard's lazy threads
// count as rolled to. The L1 cursor advances to now's slot; L2 buckets
// whose span the cursor crossed cascade — due entries roll, the rest
// refile (necessarily into L1, since their slot is within bwSlots of the
// new cursor). Entries refiled during the drain always carry a
// rolled-past-now key, so the walk never rolls them twice.
func (p *Policy) boundDrain(sh *shard, now sim.Time) {
	sh.drained = now
	target := int64(now) / p.slotW
	if target < sh.curSlot {
		target = sh.curSlot
	}
	oldSlot := sh.curSlot
	sh.curSlot = target

	// Fast path: the cursor did not move and the current slot's lower bound
	// says nothing there is due yet. Skipping the L1 walk is safe because a
	// surviving entry always has slot == target (anything filed behind the
	// cursor is due by construction), so curMin bounds every candidate; the
	// L2 cascade range is empty when the cursor is still. The overflow heap
	// is still polled below — its top can come due mid-slot.
	if target > oldSlot || sh.curMin <= now {
		// L1: buckets strictly behind now's slot are entirely due; the
		// current slot is filtered by cached key. The target bucket holds
		// only target-slot entries, so its survivors — plus whatever the
		// drain refiles into it through boundInsert — give the exact new
		// curMin.
		sh.curMin = timeMax
		first := oldSlot
		if target-first >= bwSlots {
			first = target - bwSlots + 1 // the wheel holds nothing older
		}
		for s := first; s <= target; s++ {
			cur := s == target
			for id := sh.buckets[s&bwMask]; id != 0; {
				n := &p.wn[id]
				next := n.next
				if n.key <= now {
					st := p.ws[id]
					p.boundRemove(sh, st)
					p.rollDue(sh, st, now)
				} else if cur && n.key < sh.curMin {
					sh.curMin = n.key
				}
				id = next
			}
		}

		// L2: cascade every span the cursor entered or crossed. After a jump
		// beyond the whole level every bucket is due, so the clamp to bwSlots
		// visits each index exactly once.
		old2, tgt2 := oldSlot>>bwBits, target>>bwBits
		first2 := old2 + 1
		if tgt2-first2 >= bwSlots {
			first2 = tgt2 - bwSlots + 1
		}
		for s2 := first2; s2 <= tgt2; s2++ {
			b := int(s2 & bwMask)
			for id := sh.buckets2[b]; id != 0; id = sh.buckets2[b] {
				st := p.ws[id]
				p.boundRemove(sh, st)
				if p.wn[id].key <= now {
					p.rollDue(sh, st, now)
				} else {
					p.boundInsert(sh, st) // refiles against the advanced cursor
				}
			}
		}
	}

	for len(sh.overflow) > 0 {
		id := sh.overflow[0]
		if p.wn[id].key > now {
			break
		}
		st := p.ws[id]
		p.boundRemove(sh, st)
		p.rollDue(sh, st, now)
	}
}

// --- overflow min-heap on (key, seq), for far-future boundaries ---

func (p *Policy) overflowLess(a, b uint32) bool {
	if ka, kb := p.wn[a].key, p.wn[b].key; ka != kb {
		return ka < kb
	}
	return p.ws[a].seq < p.ws[b].seq
}

func (p *Policy) overflowRemove(sh *shard, st *state) {
	i := int(st.boundIdx)
	last := len(sh.overflow) - 1
	moved := sh.overflow[last]
	sh.overflow = sh.overflow[:last]
	if i == last {
		return
	}
	sh.overflow[i] = moved
	if !p.overflowDown(sh, i) {
		p.overflowUp(sh, i)
	}
}

func (p *Policy) overflowUp(sh *shard, i int) {
	id := sh.overflow[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !p.overflowLess(id, sh.overflow[parent]) {
			break
		}
		sh.overflow[i] = sh.overflow[parent]
		p.ws[sh.overflow[i]].boundIdx = int32(i)
		i = parent
	}
	sh.overflow[i] = id
	p.ws[id].boundIdx = int32(i)
}

func (p *Policy) overflowDown(sh *shard, i int) bool {
	id := sh.overflow[i]
	n := len(sh.overflow)
	moved := false
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && p.overflowLess(sh.overflow[r], sh.overflow[kid]) {
			kid = r
		}
		if !p.overflowLess(sh.overflow[kid], id) {
			break
		}
		sh.overflow[i] = sh.overflow[kid]
		p.ws[sh.overflow[i]].boundIdx = int32(i)
		i = kid
		moved = true
	}
	sh.overflow[i] = id
	p.ws[id].boundIdx = int32(i)
	return moved
}

// --- exhausted list: queued registered threads with no budget ---

// exhAdd inserts t into the exhausted list keeping it sorted by enqueue
// sequence, which is the order the legacy scan napped exhausted threads
// in (their runnable-slice order). The list is almost always tiny.
func exhAdd(sh *shard, st *state) {
	if st.exhIdx >= 0 {
		return
	}
	i := len(sh.exhausted)
	sh.exhausted = append(sh.exhausted, nil)
	for i > 0 && sh.exhausted[i-1].seq > st.seq {
		sh.exhausted[i] = sh.exhausted[i-1]
		sh.exhausted[i].exhIdx = int32(i)
		i--
	}
	sh.exhausted[i] = st
	st.exhIdx = int32(i)
}

func exhRemove(sh *shard, st *state) {
	i := int(st.exhIdx)
	if i < 0 {
		return
	}
	st.exhIdx = -1
	copy(sh.exhausted[i:], sh.exhausted[i+1:])
	last := len(sh.exhausted) - 1
	sh.exhausted[last] = nil
	sh.exhausted = sh.exhausted[:last]
	for ; i < last; i++ {
		sh.exhausted[i].exhIdx = int32(i)
	}
}
