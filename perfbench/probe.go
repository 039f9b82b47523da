package main

import (
	"time"

	realrate "repro"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// A probe is the traced run's instrumentation for one machine run. It
// lives entirely in the benchmark: spans around each call into the
// program, a realrate.Observer on slo machines and a timing kernel.Policy
// decorator on the storm machine. Untraced runs pass a nil probe; span
// accepts it and nothing else is installed.
type probe struct {
	machine int
	spans   []span
	epochs  epochClock

	dispatches, migrations, actuations uint64
	admitted, refused, exits           uint64
	sheds, rungChanges                 uint64

	calls [numOps]uint64
	ns    [numOps]time.Duration
}

// span is one timed call into the program. Spans of one machine run
// share its machine id; parent names the enclosing span.
type span struct {
	Machine int    `json:"machine"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// processStart anchors span times.
var processStart = time.Now()

func newProbe(machine int) *probe { return &probe{machine: machine} }

// span opens a span named name under the machine span and returns the
// function that closes it.
func (p *probe) span(name string) func() {
	if p == nil {
		return func() {}
	}
	return p.spanUnder(name, "machine")
}

func (p *probe) spanUnder(name, parent string) func() {
	start := time.Since(processStart)
	return func() {
		p.spans = append(p.spans, span{Machine: p.machine, Name: name, Parent: parent,
			StartNS: int64(start), EndNS: int64(time.Since(processStart))})
	}
}

// epochClock stamps host time whenever the simulated clock crosses a
// 10 ms boundary and keeps the host milliseconds each epoch took.
type epochClock struct {
	next    time.Duration // next boundary to stamp at
	lastIdx time.Duration // epoch index of the last stamp
	last    time.Time
	ms      []float64
}

func (c *epochClock) at(now time.Duration) {
	if now < c.next {
		return
	}
	h := time.Now()
	idx := now / epoch
	if !c.last.IsZero() {
		// An idle stretch may cross several boundaries between callbacks.
		c.ms = append(c.ms, float64(h.Sub(c.last))/float64(time.Millisecond)/float64(idx-c.lastIdx))
	}
	c.last, c.lastIdx, c.next = h, idx, (idx+1)*epoch
}

// observer counts realrate.Observer callbacks on an slo machine and drives
// its epoch clock from dispatches.
type observer struct {
	realrate.NopObserver
	p *probe
}

func (o *observer) OnDispatch(now time.Duration, _ *realrate.Thread, _ int) {
	o.p.dispatches++
	o.p.epochs.at(now)
}

func (o *observer) OnMigration(time.Duration, *realrate.Thread, int, int) { o.p.migrations++ }

func (o *observer) OnActuation(time.Duration, *realrate.Thread, int, time.Duration) {
	o.p.actuations++
}

func (o *observer) OnAdmission(ev realrate.AdmissionEvent) {
	if ev.Accepted {
		o.p.admitted++
	} else {
		o.p.refused++
	}
}

func (o *observer) OnExit(time.Duration, *realrate.Thread) { o.p.exits++ }

func (o *observer) OnOverload(realrate.OverloadEvent) { o.p.rungChanges++ }

func (o *observer) OnShed(realrate.ShedEvent) { o.p.sheds++ }

// The rbs entry points the timing decorator prices per call.
const (
	opPick = iota
	opCharge
	opTick
	opEnqueue
	opDequeue
	numOps
)

var opNames = [numOps]string{"pick", "charge", "tick", "enqueue", "dequeue"}

// timedPolicy times the hot kernel.Policy calls into rbs on the storm
// machine and drives its epoch clock from timer ticks. Every other method
// passes straight through the embedded policy.
type timedPolicy struct {
	kernel.Policy
	p *probe
}

func (t *timedPolicy) done(op int, start time.Time) {
	t.p.ns[op] += time.Since(start)
	t.p.calls[op]++
}

func (t *timedPolicy) Pick(cpu int, now sim.Time) *kernel.Thread {
	start := time.Now()
	th := t.Policy.Pick(cpu, now)
	t.done(opPick, start)
	return th
}

func (t *timedPolicy) Charge(th *kernel.Thread, cpu int, ran sim.Duration, now sim.Time) bool {
	start := time.Now()
	resched := t.Policy.Charge(th, cpu, ran, now)
	t.done(opCharge, start)
	return resched
}

func (t *timedPolicy) Tick(cpu int, now sim.Time) bool {
	t.p.epochs.at(time.Duration(now))
	start := time.Now()
	resched := t.Policy.Tick(cpu, now)
	t.done(opTick, start)
	return resched
}

func (t *timedPolicy) Enqueue(th *kernel.Thread, now sim.Time) {
	start := time.Now()
	t.Policy.Enqueue(th, now)
	t.done(opEnqueue, start)
}

func (t *timedPolicy) Dequeue(th *kernel.Thread, now sim.Time) {
	start := time.Now()
	t.Policy.Dequeue(th, now)
	t.done(opDequeue, start)
}
