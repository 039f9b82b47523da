package rbs

import "repro/internal/sim"

// Test seams: they let the external tests drive Verify's audit directly
// and corrupt one cached quantity at a time, so each audit check is shown
// to fire.

// SeqMax is the largest sequence number a ready key holds unsaturated.
const SeqMax = seqMax

// VerifyShard runs Verify's per-Pick checks on one CPU's shard at now,
// without draining the wheel first.
func VerifyShard(p *Policy, cpu int, now sim.Time) { p.verifyPick(&p.shards[cpu], now) }

// SetSeqGen makes the next enqueue sequence number v.
func SetSeqGen(p *Policy, v uint64) { p.seqGen = v }

// SeqGen returns the next enqueue sequence number.
func SeqGen(p *Policy) uint64 { return p.seqGen }

// CorruptReadyKey perturbs the cached key of the shard's heap top.
func CorruptReadyKey(p *Policy, cpu int) bool {
	sh := &p.shards[cpu]
	if len(sh.ready) == 0 {
		return false
	}
	sh.ready[0].k ^= 1
	return true
}

// CorruptWheelLink clears the back link of the second node of the first
// L1 bucket that has two.
func CorruptWheelLink(p *Policy, cpu int) bool {
	for _, head := range p.shards[cpu].buckets {
		if head == 0 {
			continue
		}
		if next := p.wn[head].next; next != 0 {
			p.wn[next].prev = 0
			return true
		}
	}
	return false
}

// CorruptNodeKey shifts the filed key of the first L1 bucket head.
func CorruptNodeKey(p *Policy, cpu int) bool {
	for _, head := range p.shards[cpu].buckets {
		if head != 0 {
			p.wn[head].key++
			return true
		}
	}
	return false
}

// UnfileNode unlinks the first L1 bucket head from the wheel behind its
// state's back, leaving a queued registered thread unfiled.
func UnfileNode(p *Policy, cpu int) bool {
	sh := &p.shards[cpu]
	for b, head := range sh.buckets {
		if head == 0 {
			continue
		}
		next := p.wn[head].next
		sh.buckets[b] = next
		if next != 0 {
			p.wn[next].prev = 0
		}
		p.wn[head].next = 0
		return true
	}
	return false
}

// RaiseCurMin lifts curMin above the smallest key filed in the current
// slot; false when that slot is empty.
func RaiseCurMin(p *Policy, cpu int) bool {
	sh := &p.shards[cpu]
	min := timeMax
	for id := sh.buckets[sh.curSlot&bwMask]; id != 0; id = p.wn[id].next {
		if k := p.wn[id].key; k < min {
			min = k
		}
	}
	if min == timeMax {
		return false
	}
	sh.curMin = min + 1
	return true
}

// FileLazy files the first lazy thread in the shard's ready heap in the
// boundary wheel, as an eager roll would.
func FileLazy(p *Policy, cpu int) bool {
	sh := &p.shards[cpu]
	for _, e := range sh.ready {
		if p.lazy(e.st) {
			p.boundInsert(sh, e.st)
			return true
		}
	}
	return false
}

// InflateBudget lifts the budget of the first registered thread in the
// shard's ready heap above its period's allocation.
func InflateBudget(p *Policy, cpu int) bool {
	for _, e := range p.shards[cpu].ready {
		if st := e.st; st.registered {
			st.budget = st.perBudget + 1
			return true
		}
	}
	return false
}
