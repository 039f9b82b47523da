// Package progress implements the paper's symbiotic interfaces (§3.2): the
// linkage that exposes application progress to the scheduler. A bounded
// buffer registers its fill level, size, and each endpoint's role; the
// controller samples the registry each control interval and computes the
// progress pressure of Figure 3:
//
//	Q_t = G( Σ_i R_{t,i} · F_{t,i} )
//
// where F = fill/size − ½ ∈ [−½, ½] and R flips the sign for producers.
// This package computes the inner sum; the PID filter G lives in the
// controller.
package progress

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Role says which side of a bounded buffer a thread is on.
type Role int

// Roles.
const (
	// Producer threads fill the queue; a full queue means they are running
	// ahead (negative pressure).
	Producer Role = iota
	// Consumer threads drain the queue; a full queue means they are
	// falling behind (positive pressure).
	Consumer
)

func (r Role) String() string {
	if r == Producer {
		return "producer"
	}
	return "consumer"
}

// Sign returns the paper's R: −1 for producers, +1 for consumers.
func (r Role) Sign() float64 {
	if r == Producer {
		return -1
	}
	return 1
}

// Metric yields one progress-pressure sample for a thread. Pressure is
// R·F ∈ [−½, ½]: positive means the thread is falling behind and needs more
// CPU; negative means it is running ahead.
type Metric interface {
	// Pressure samples the metric at the given instant.
	Pressure(now sim.Time) float64
	// Describe identifies the metric for traces.
	Describe() string
}

// Watchable is the optional push half of a Metric: a metric that can
// announce when its underlying signal moved. The event-driven control
// plane watches every watchable metric a job registers and skips
// re-sampling jobs whose signals are quiet; metrics without Watch are
// covered by the staleness bound instead.
type Watchable interface {
	// Watch registers fn to be called whenever the metric's signal changes.
	Watch(fn func())
}

// QueueMetric is the canonical symbiotic interface: a kernel bounded buffer
// plus the registering thread's role. "By exposing the fill-level, size,
// and role of the application (producer or consumer), the scheduler can
// determine the relative rate of progress of the application."
type QueueMetric struct {
	Queue *kernel.Queue
	Role  Role
}

// Pressure implements Metric: R · (fill/size − ½).
func (m QueueMetric) Pressure(now sim.Time) float64 {
	f := m.Queue.FillLevel() - 0.5
	return m.Role.Sign() * f
}

// Describe implements Metric.
func (m QueueMetric) Describe() string {
	return fmt.Sprintf("queue(%s,%s)", m.Queue.Name(), m.Role)
}

// F returns the raw fill-level term before the role sign is applied,
// exposed for tests of the Figure 3 equation.
func (m QueueMetric) F() float64 { return m.Queue.FillLevel() - 0.5 }

// Watch implements Watchable: the signal moves exactly when the queue's
// fill does.
func (m QueueMetric) Watch(fn func()) { m.Queue.Watch(funcWatcher{fn}) }

// funcWatcher adapts a plain func to the kernel's QueueWatcher interface
// for the generic Watchable path; the registry's queue-metric fast path
// bypasses it with pooled watcher objects.
type funcWatcher struct{ fn func() }

func (w funcWatcher) QueueChanged() { w.fn() }

// VirtualQueue is the pseudo-progress metric of §4.5 for applications with
// no natural bounded buffer ("a pure computation ... could use a metric
// such as the number of keys it has attempted"). The application produces
// completed work units into a virtual buffer that drains at a constant
// target rate; if the application cannot keep the buffer half full it is
// falling behind and pressure rises.
type VirtualQueue struct {
	name string
	// size is the buffer depth in work units.
	size float64
	// drainPerSec is the target processing rate.
	drainPerSec float64

	fill      float64
	lastDrain sim.Time

	// watchers are notified on every Complete — the only edge at which new
	// information enters the virtual buffer (the drain is pure clockwork,
	// already captured by the staleness bound).
	watchers []func()
}

// NewVirtualQueue creates a pseudo-progress buffer of the given depth that
// drains at targetRate units/second. It starts half full (zero pressure).
func NewVirtualQueue(name string, depth, targetRate float64) *VirtualQueue {
	if depth <= 0 || targetRate <= 0 {
		panic("progress: virtual queue needs positive depth and rate")
	}
	return &VirtualQueue{name: name, size: depth, drainPerSec: targetRate, fill: depth / 2}
}

// Complete records n finished work units at the given instant.
func (v *VirtualQueue) Complete(now sim.Time, n float64) {
	v.drain(now)
	v.fill += n
	if v.fill > v.size {
		v.fill = v.size
	}
	for _, fn := range v.watchers {
		fn()
	}
}

// Watch implements Watchable: completed work units are the signal's
// event edge.
func (v *VirtualQueue) Watch(fn func()) { v.watchers = append(v.watchers, fn) }

func (v *VirtualQueue) drain(now sim.Time) {
	dt := now.Sub(v.lastDrain).Seconds()
	if dt > 0 {
		v.fill -= dt * v.drainPerSec
		if v.fill < 0 {
			v.fill = 0
		}
		v.lastDrain = now
	}
}

// FillLevel returns the virtual fill in [0,1].
func (v *VirtualQueue) FillLevel(now sim.Time) float64 {
	v.drain(now)
	return v.fill / v.size
}

// Pressure implements Metric: the thread is the producer of completed work,
// so low fill (behind the target rate) yields positive pressure.
func (v *VirtualQueue) Pressure(now sim.Time) float64 {
	return Producer.Sign() * (v.FillLevel(now) - 0.5)
}

// Describe implements Metric.
func (v *VirtualQueue) Describe() string {
	return fmt.Sprintf("virtual(%s,%.0f/s)", v.name, v.drainPerSec)
}

// Registry is the kernel-side table the meta-interface system call fills
// in: which queues (or other metrics) each thread's progress is linked to.
type Registry struct {
	// entries holds each thread's metrics by kernel slot. Unregister
	// empties the slice in place for the slot's next occupant to reuse, so
	// a session storm allocates no slice per admission.
	entries kernel.SlotTable[[]Metric]

	// qmBoxed interns the boxed interface value for each (queue, role)
	// pair, so re-registering a recycled queue does not re-box the same
	// QueueMetric. Entries are value types with no life cycle; the cache
	// is bounded by the number of distinct queues ever registered.
	qmBoxed map[QueueMetric]Metric

	// qwSlab is the current chunk backing queue-metric watcher objects
	// (see watch); carving them from a slab keeps watcher wiring
	// allocation-free per registration.
	qwSlab []queueWatcher

	// dirty, when set, is invoked with the owning thread whenever one of
	// its watchable metrics announces a signal change. Nil (the default)
	// keeps registration free of watcher wiring.
	dirty func(t *kernel.Thread)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Slots returns the length of the registry's per-thread slot table.
func (r *Registry) Slots() int { return len(r.entries) }

// SetDirtyHook installs the dirty-signal callback: fn is invoked with the
// owning thread whenever one of its watchable metrics reports a change.
// Install it before the first Register, as the controller does: later it
// panics, since earlier metrics would go unwatched. It cannot be removed.
func (r *Registry) SetDirtyHook(fn func(t *kernel.Thread)) {
	if len(r.entries) > 0 {
		panic("progress: SetDirtyHook after the first Register")
	}
	r.dirty = fn
}

// watch attaches the dirty hook to one metric if it is watchable. The
// closure snapshots the thread's slot generation: when thread slots are
// recycled, a watcher wired to a previous life of the slot must not mark
// the slot's new occupant dirty (a metric the new thread never
// registered), so the callback no-ops once the generation moves on.
func (r *Registry) watch(t *kernel.Thread, m Metric) {
	if qm, ok := m.(QueueMetric); ok {
		// Queue metrics — the overwhelmingly common case on the session
		// storm path — get a slab-carved watcher object instead of a
		// closure: zero amortized allocation per registration.
		if len(r.qwSlab) == 0 {
			r.qwSlab = make([]queueWatcher, 256)
		}
		w := &r.qwSlab[0]
		r.qwSlab = r.qwSlab[1:]
		*w = queueWatcher{r: r, t: t, gen: t.Gen()}
		qm.Queue.Watch(w)
		return
	}
	if w, ok := m.(Watchable); ok {
		gen := t.Gen()
		w.Watch(func() {
			if t.Gen() == gen {
				r.dirty(t)
			}
		})
	}
}

// queueWatcher is the pooled gen-guarded dirty hook for queue metrics: it
// must not mark the slot's new occupant dirty once the thread generation
// moves on (see watch).
type queueWatcher struct {
	r   *Registry
	t   *kernel.Thread
	gen uint32
}

func (w *queueWatcher) QueueChanged() {
	if w.t.Gen() == w.gen {
		w.r.dirty(w.t)
	}
}

// Watched reports whether every metric registered for t is watchable —
// i.e. whether the dirty hook sees all of t's signal changes. Jobs with
// any unwatchable metric must be re-sampled on the staleness bound alone.
func (r *Registry) Watched(t *kernel.Thread) bool {
	ms := r.entries.At(t)
	if len(ms) == 0 {
		return false
	}
	for _, m := range ms {
		if _, ok := m.(Watchable); !ok {
			return false
		}
	}
	return true
}

// Register links a metric to a thread. A thread may register several
// metrics (a pipeline stage is consumer of one queue and producer of the
// next); their pressures sum per Figure 3.
func (r *Registry) Register(t *kernel.Thread, m Metric) {
	r.entries.Set(t, append(r.entries.At(t), m))
	if r.dirty != nil {
		r.watch(t, m)
	}
}

// RegisterQueue is shorthand for the common producer/consumer linkage.
func (r *Registry) RegisterQueue(t *kernel.Thread, q *kernel.Queue, role Role) {
	qm := QueueMetric{Queue: q, Role: role}
	m, ok := r.qmBoxed[qm]
	if !ok {
		if r.qmBoxed == nil {
			r.qmBoxed = make(map[QueueMetric]Metric)
		}
		m = qm
		r.qmBoxed[qm] = m
	}
	r.Register(t, m)
}

// Unregister removes all linkage for a thread (e.g. on exit). The
// thread's metric slice is scrubbed and emptied in place, for the slot's
// next occupant to reuse.
func (r *Registry) Unregister(t *kernel.Thread) {
	if ms := r.entries.At(t); len(ms) > 0 {
		clear(ms)
		r.entries.Set(t, ms[:0])
	}
}

// HasMetrics reports whether t supplied any progress metric — the
// controller's real-rate versus miscellaneous classification hinges on it.
func (r *Registry) HasMetrics(t *kernel.Thread) bool {
	return len(r.entries.At(t)) > 0
}

// SummedPressure computes Σ_i R·F for thread t, clamped to [−½, ½] so a
// many-queue pipeline stage cannot swamp the controller. The clamp
// preserves the paper's invariant that pressure "is a number between −½
// and ½".
func (r *Registry) SummedPressure(t *kernel.Thread, now sim.Time) float64 {
	var sum float64
	for _, m := range r.entries.At(t) {
		sum += m.Pressure(now)
	}
	if sum > 0.5 {
		sum = 0.5
	}
	if sum < -0.5 {
		sum = -0.5
	}
	return sum
}
