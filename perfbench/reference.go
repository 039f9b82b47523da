package main

import "time"

// The reference is a fixed event-queue computation that belongs to the
// benchmark, not to the program: a 10k-entry binary min-heap of timed
// events popped and re-armed in a loop, each firing touching a 2 MB state
// table — the same kind of work as the simulator's event wheel, ready heap
// and per-thread state. It runs before every machine. The host on which
// the benchmark runs speeds up and slows down by tens of percent for
// seconds at a time, and the reference slows down with the program, so
// host time divided by the reference's time stays steady where raw host
// time does not. Nothing in the repository can change how long it takes.
const (
	refEvents = 10_000
	refFires  = 40_000
	refState  = 1 << 18 // int64 entries: 2 MB
)

type refEvent struct {
	at int64
	id int32
}

var (
	refHeap  = make([]refEvent, refEvents)
	refTable = make([]int64, refState)
	refSink  int64
)

// reference runs the reference computation once and returns its host time.
func reference() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := refHeap
	for i := range h {
		h[i] = refEvent{at: int64(next() % 1_000_000), id: int32(i)}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		refSiftDown(h, i)
	}
	for n := 0; n < refFires; n++ {
		// Fire the earliest event, touch its state, re-arm it.
		r := next()
		slot := int(r % refState)
		refTable[slot] += h[0].at
		refSink += refTable[(slot*7919)%refState]
		h[0].at += int64(r % 50_000)
		refSiftDown(h, 0)
	}
	return time.Since(start)
}

func refSiftDown(h []refEvent, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
