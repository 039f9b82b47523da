package realrate

import (
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SLO accounting promotes the trace recorder's reservoir-sampled
// wake→dispatch latencies to a first-class, always-on (when
// Config.Overload is set) per-job and per-class tail-latency metric: the
// time between a thread becoming runnable and actually getting a CPU is
// the user-visible scheduling latency, and its p99/p999 against a target
// is what "degraded" means to a caller. The tracker also keeps a short
// recent window whose p99 feeds the overload governor's SLO-driven trip
// point (OverloadConfig.LatencyTrip), and a second, coarser dimension:
// end-to-end session latencies recorded explicitly through
// System.ObserveSessionLatency against OverloadConfig.SessionSLO.

// sloCaps bound the tracker's footprint: past each cap, reservoir
// sampling (fixed-seed, deterministic) keeps a uniform sample of the
// whole run, so 10k-thread storms don't grow the heap without bound.
const (
	sloJobSamples   = 512
	sloClassSamples = 4096
	sloRecent       = 256
)

// sloSeries is one reservoir of latency samples (in seconds) plus exact
// attainment counters — attainment is counted per sample, not estimated
// from the reservoir. Each series owns its reservoir RNG, seeded from the
// series' identity alone: which samples a reservoir keeps then depends
// only on that series' own sample stream, never on how samples of
// unrelated jobs interleave with it in observer-callback order. (SMP
// machines and sharded control planes reorder taps *across* jobs for the
// same seed; the per-job order is fixed by the simulation. A single
// shared RNG coupled every reservoir to the global interleaving.)
type sloSeries struct {
	seen     uint64
	attained uint64
	samples  []float64
	rng      *sim.RNG
}

func newSLOSeries(dim byte, key string) *sloSeries {
	return &sloSeries{rng: sim.NewRNG(sloSeed(dim, key))}
}

// sloSeed derives a reservoir seed from the series' identity (dimension
// tag + key) with an FNV-1a hash — stable across runs and platforms.
func sloSeed(dim byte, key string) uint64 {
	h := uint64(0xcbf29ce484222325) ^ uint64(dim)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	return h
}

func (ss *sloSeries) add(lat float64, ok bool, cap int) {
	ss.seen++
	if ok {
		ss.attained++
	}
	if len(ss.samples) < cap {
		ss.samples = append(ss.samples, lat)
		return
	}
	if i := ss.rng.Intn(int(ss.seen)); i < cap {
		ss.samples[i] = lat
	}
}

// sloTracker is installed on the observer hub when Config.Overload is
// set; the hub feeds it every OnWake/OnDispatch edge. The pending wake
// instant and the per-job/per-class series pointers are cached on the
// Thread handle, which the kernel thread's User field names, so the
// per-sample cost is reservoir arithmetic — no maps, no string hashing.
type sloTracker struct {
	sys           *System
	target        sim.Duration
	sessionTarget sim.Duration

	byJob   map[string]*sloSeries
	byClass map[string]*sloSeries
	total   *sloSeries

	// sessTotal and sessByKind hold the session dimension: one sample per
	// ObserveSessionLatency call, measured against sessionTarget.
	sessTotal  *sloSeries
	sessByKind map[string]*sloSeries

	// recent is a ring of the newest latencies (seconds) for the
	// governor's SLO trip probe; scratch backs sorted.
	recent    []float64
	recentIdx int
	scratch   []float64
}

// DefaultLatencySLO is the wake→dispatch target used when
// OverloadConfig.LatencySLO is zero: ten timer ticks.
const DefaultLatencySLO = 10 * time.Millisecond

// DefaultSessionSLO is the end-to-end session latency target used when
// OverloadConfig.SessionSLO is zero. Sessions span several wake→dispatch
// edges plus the work between them, so the default is an order of
// magnitude above DefaultLatencySLO.
const DefaultSessionSLO = 100 * time.Millisecond

func newSLOTracker(sys *System, target, sessionTarget time.Duration) *sloTracker {
	if target <= 0 {
		target = DefaultLatencySLO
	}
	if sessionTarget <= 0 {
		sessionTarget = DefaultSessionSLO
	}
	return &sloTracker{
		sys:           sys,
		target:        sim.FromStd(target),
		sessionTarget: sim.FromStd(sessionTarget),
		byJob:         make(map[string]*sloSeries),
		byClass:       make(map[string]*sloSeries),
		total:         newSLOSeries('t', ""),
		sessTotal:     newSLOSeries('S', ""),
		sessByKind:    make(map[string]*sloSeries),
	}
}

// wake records the instant a thread became runnable. A thread woken twice
// before running keeps the first instant — the latency is measured from
// when it first could have run.
func (tr *sloTracker) wake(now sim.Time, t *kernel.Thread) {
	if th, ok := t.User.(*Thread); ok && !th.sloPending {
		th.sloPending, th.sloWake = true, now
	}
}

// dispatch closes a pending wake edge into one latency sample.
func (tr *sloTracker) dispatch(now sim.Time, t *kernel.Thread) {
	th, ok := t.User.(*Thread)
	if !ok || !th.sloPending {
		return // no open edge (or the controller's own thread: no SLO)
	}
	th.sloPending = false
	lat := now.Sub(th.sloWake)
	sec := lat.Seconds()
	within := lat <= tr.target
	tr.total.add(sec, within, sloClassSamples)
	if th.sloJob == nil {
		// First sample for this handle: resolve (and memoize) its series.
		// The class is fixed at spawn, so caching is safe.
		th.sloJob = tr.series(tr.byJob, 'j', th.Name())
		th.sloClass = tr.series(tr.byClass, 'c', th.Class())
	}
	th.sloJob.add(sec, within, sloJobSamples)
	th.sloClass.add(sec, within, sloClassSamples)
	if len(tr.recent) < sloRecent {
		tr.recent = append(tr.recent, sec)
	} else {
		tr.recent[tr.recentIdx] = sec
		tr.recentIdx = (tr.recentIdx + 1) % sloRecent
	}
}

// session records one end-to-end session latency against sessionTarget.
func (tr *sloTracker) session(kind string, lat sim.Duration) {
	sec := lat.Seconds()
	within := lat <= tr.sessionTarget
	tr.sessTotal.add(sec, within, sloClassSamples)
	tr.series(tr.sessByKind, 's', kind).add(sec, within, sloClassSamples)
}

func (tr *sloTracker) series(m map[string]*sloSeries, dim byte, key string) *sloSeries {
	ss := m[key]
	if ss == nil {
		ss = newSLOSeries(dim, key)
		m[key] = ss
	}
	return ss
}

// recentP99 is the governor's SLO probe: the p99 over the recent window.
func (tr *sloTracker) recentP99() sim.Duration {
	if len(tr.recent) == 0 {
		return 0
	}
	return sim.Duration(metrics.PercentileSorted(tr.sorted(tr.recent), 99) * float64(sim.Second))
}

// sorted returns an ascending copy of vs, valid until the next call. The
// reservoirs stay unsorted: replacement picks samples by position.
func (tr *sloTracker) sorted(vs []float64) []float64 {
	tr.scratch = append(tr.scratch[:0], vs...)
	sort.Float64s(tr.scratch)
	return tr.scratch
}

// SLOStat summarizes one job's or class's wake→dispatch latency.
type SLOStat struct {
	// Samples is the exact number of latency edges observed (the
	// percentiles are computed over a uniform reservoir of them).
	Samples uint64
	// P50, P99, P999 are the latency percentiles.
	P50, P99, P999 time.Duration
	// Attainment is the exact fraction of samples at or under the target.
	Attainment float64
}

// SLOReport is the system-wide SLO accounting snapshot.
type SLOReport struct {
	// Target is the latency SLO the attainment figures are measured
	// against (OverloadConfig.LatencySLO).
	Target time.Duration
	// Samples and Attainment cover every thread together.
	Samples    uint64
	Attainment float64
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	// Classes and Jobs break the accounting down by thread class and by
	// thread name.
	Classes map[string]SLOStat
	Jobs    map[string]SLOStat
	// SessionTarget is the end-to-end session latency SLO
	// (OverloadConfig.SessionSLO); Session aggregates every latency
	// recorded through ObserveSessionLatency against it, and Sessions
	// breaks the dimension down by session kind. The per-kind sample
	// counts sum exactly to Session.Samples — one sample per recorded
	// session, nothing dropped, nothing double-counted.
	SessionTarget time.Duration
	Session       SLOStat
	Sessions      map[string]SLOStat
}

// stat summarizes one series, sorting its reservoir once.
func (tr *sloTracker) stat(ss *sloSeries) SLOStat {
	st := SLOStat{Samples: ss.seen}
	if ss.seen > 0 {
		st.Attainment = float64(ss.attained) / float64(ss.seen)
	}
	if len(ss.samples) > 0 {
		s := tr.sorted(ss.samples)
		st.P50 = secDur(metrics.PercentileSorted(s, 50))
		st.P99 = secDur(metrics.PercentileSorted(s, 99))
		st.P999 = secDur(metrics.PercentileSorted(s, 99.9))
	}
	return st
}

func secDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// ObserveSessionLatency records one end-to-end latency sample for the
// named session kind — the time from a user-level session's arrival to
// its final delivery, spanning every stage of its pipeline. It is the
// caller's declaration that one session completed; the tracker measures
// it against OverloadConfig.SessionSLO and reports the dimension through
// SLO().Session/Sessions. A no-op unless Config.Overload enabled SLO
// accounting. Latencies are clamped below at zero.
func (s *System) ObserveSessionLatency(kind string, latency time.Duration) {
	if s.slo == nil {
		return
	}
	if latency < 0 {
		latency = 0
	}
	s.slo.session(kind, sim.FromStd(latency))
}

// SLO returns the wake→dispatch latency accounting: overall, per-class,
// and per-job p50/p99/p999 with exact SLO attainment, plus the recorded
// end-to-end session dimension. It returns a zero report unless
// Config.Overload enabled SLO accounting.
func (s *System) SLO() SLOReport {
	if s.slo == nil {
		return SLOReport{}
	}
	tr := s.slo
	rep := SLOReport{
		Target:        tr.target.Std(),
		SessionTarget: tr.sessionTarget.Std(),
		Classes:       make(map[string]SLOStat, len(tr.byClass)),
		Jobs:          make(map[string]SLOStat, len(tr.byJob)),
		Sessions:      make(map[string]SLOStat, len(tr.sessByKind)),
	}
	tot := tr.stat(tr.total)
	rep.Samples = tot.Samples
	rep.Attainment = tot.Attainment
	rep.P50, rep.P99, rep.P999 = tot.P50, tot.P99, tot.P999
	for cls, ss := range tr.byClass {
		rep.Classes[cls] = tr.stat(ss)
	}
	for name, ss := range tr.byJob {
		rep.Jobs[name] = tr.stat(ss)
	}
	rep.Session = tr.stat(tr.sessTotal)
	for kind, ss := range tr.sessByKind {
		rep.Sessions[kind] = tr.stat(ss)
	}
	return rep
}
