// Package baseline implements the comparator scheduling policies the paper
// argues against: a plain round-robin scheduler and a Linux 2.0-style
// goodness scheduler with multilevel-feedback decay, nice values, and a
// fixed real-time priority class. The motivation experiments (§2: Mars
// Pathfinder priority inversion, spin-wait livelock, starvation) run on
// these policies; the paper's own scheduler lives in internal/rbs.
//
// On a multi-CPU machine every baseline keeps one runnable structure per
// CPU, keyed by kernel.Thread.CPU(), and supports work-pull migration via
// Steal — the minimal per-CPU treatment: global share state (tickets,
// counters, passes) with per-CPU dispatch queues.
package baseline

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// RoundRobin is the simplest possible policy: runnable threads take equal
// fixed quanta in FIFO order, one FIFO per CPU.
type RoundRobin struct {
	k        *kernel.Kernel
	quantum  sim.Duration
	runnable [][]*kernel.Thread
}

func rrUsed(t *kernel.Thread) *sim.Duration { return t.Sched.(*sim.Duration) }

// NewRoundRobin returns a round-robin policy with the given quantum. A
// non-positive quantum defaults to 10ms.
func NewRoundRobin(quantum sim.Duration) *RoundRobin {
	if quantum <= 0 {
		quantum = 10 * sim.Millisecond
	}
	return &RoundRobin{quantum: quantum}
}

// Name implements kernel.Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Attach implements kernel.Policy.
func (p *RoundRobin) Attach(k *kernel.Kernel) {
	p.k = k
	p.runnable = make([][]*kernel.Thread, k.NumCPUs())
}

// AddThread implements kernel.Policy.
func (p *RoundRobin) AddThread(t *kernel.Thread, now sim.Time) { t.Sched = new(sim.Duration) }

// RemoveThread implements kernel.Policy.
func (p *RoundRobin) RemoveThread(t *kernel.Thread, now sim.Time) {}

// Enqueue implements kernel.Policy.
func (p *RoundRobin) Enqueue(t *kernel.Thread, now sim.Time) {
	q := p.runnable[t.CPU()]
	for _, r := range q {
		if r == t {
			return
		}
	}
	p.runnable[t.CPU()] = append(q, t)
}

// Dequeue implements kernel.Policy.
func (p *RoundRobin) Dequeue(t *kernel.Thread, now sim.Time) {
	q := p.runnable[t.CPU()]
	for i, r := range q {
		if r == t {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil // clear the vacated tail slot
			p.runnable[t.CPU()] = q[:len(q)-1]
			return
		}
	}
}

// Pick implements kernel.Policy: the front of the CPU's FIFO runs.
func (p *RoundRobin) Pick(cpu int, now sim.Time) *kernel.Thread {
	q := p.runnable[cpu]
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// Steal implements kernel.Policy: hand over the first migratable thread in
// the victim's FIFO.
func (p *RoundRobin) Steal(from int, now sim.Time) *kernel.Thread {
	if t := kernel.StealCandidate(p.runnable[from], p.k.CurrentOn(from)); t != nil {
		p.Dequeue(t, now)
		return t
	}
	return nil
}

// TimeSlice implements kernel.Policy.
func (p *RoundRobin) TimeSlice(t *kernel.Thread, now sim.Time) sim.Duration {
	rem := p.quantum - *rrUsed(t)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Charge implements kernel.Policy: quantum exhaustion rotates the thread to
// the back of its CPU's queue.
func (p *RoundRobin) Charge(t *kernel.Thread, cpu int, ran sim.Duration, now sim.Time) bool {
	u := rrUsed(t)
	if *u += ran; *u >= p.quantum {
		*u = 0
		p.rotate(t)
		return true
	}
	return false
}

func (p *RoundRobin) rotate(t *kernel.Thread) {
	q := p.runnable[t.CPU()]
	if len(q) > 1 && q[0] == t {
		copy(q, q[1:])
		q[len(q)-1] = t
	}
}

// Tick implements kernel.Policy.
func (p *RoundRobin) Tick(cpu int, now sim.Time) bool { return false }

// WakePreempts implements kernel.Policy: wakeups never preempt.
func (p *RoundRobin) WakePreempts(woken, current *kernel.Thread, now sim.Time) bool {
	return false
}
