package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/pid"
	"repro/internal/sim"
)

// Class is the controller's thread taxonomy (Figure 2 of the paper):
// whether proportion, period, and a progress metric were specified
// determines how the controller treats the job.
type Class int

// The four classes of Figure 2, plus the interactive heuristic class of
// §3.2 (a server listening on a tty, scheduled with a small period and a
// proportion estimated from its burst lengths).
const (
	// RealTime jobs specify both proportion and period: a reservation the
	// controller honors and never adapts.
	RealTime Class = iota
	// AperiodicRealTime jobs specify proportion only; the controller
	// assigns the default period.
	AperiodicRealTime
	// RealRate jobs supply a progress metric but neither proportion nor
	// period; the controller estimates both.
	RealRate
	// Miscellaneous jobs supply nothing; a constant-pressure heuristic
	// grows their allocation until they are satisfied or squished.
	Miscellaneous
	// Interactive jobs are known to wait on a tty-like wait queue; they
	// get a small period and a proportion estimated from typical burst
	// length before blocking.
	Interactive
)

func (c Class) String() string {
	switch c {
	case RealTime:
		return "real-time"
	case AperiodicRealTime:
		return "aperiodic-real-time"
	case RealRate:
		return "real-rate"
	case Miscellaneous:
		return "miscellaneous"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Adaptive reports whether the controller adjusts this class's proportion.
func (c Class) Adaptive() bool {
	return c == RealRate || c == Miscellaneous || c == Interactive
}

// Job is one controlled entity: in the paper's terms, "a collection of
// cooperating threads"; here one thread per job (the prototype's jobs map
// to threads the same way).
type Job struct {
	// The fields every control epoch's shard walk reads come first, in
	// 56 contiguous bytes: at 100k jobs the walk is memory-bound, and
	// spread over the object these fields cost about three cache misses
	// per job instead of one (TestEventDrivenPerJobCostScales).
	//
	// Control-loop bookkeeping (see plane.go). shard is the job's home
	// shard, cached from its primary thread. lastEpoch is the epoch in
	// which some shard last visited the job: a job re-homed mid-epoch onto
	// a shard that has not ticked yet carries the mark that stops a second
	// visit. sampleEpoch is the epoch of the last actual sample; epoch −
	// sampleEpoch is the gap the estimators integrate over.
	shard       int
	lastEpoch   int64
	sampleEpoch int64
	// sampled reports whether the job has ever been sampled. dirty is the
	// push half of event-driven sampling: a watched metric announced a
	// change since the last sample. watched reports whether dirty marks
	// see every signal edge of the job (every registered metric is
	// watchable), refreshed at each event-mode sample. removed marks a job
	// that left the controller; its shard drops it at the next visit.
	sampled, dirty, watched, removed bool

	class Class
	// desired is the pre-squish allocation computed this interval.
	desired int
	// allocated is the post-squish actuated allocation.
	allocated int

	thread *kernel.Thread
	// members lists every thread of the job, members[0] == thread. "A job
	// is a collection of cooperating threads that may or may not be
	// contained in the same process" (§3); the allocation belongs to the
	// job and is split across its members.
	members []*kernel.Thread

	// importance is the weighted-fair-share weight (§3.3: "we have
	// extended this simple fair-share policy by associating an importance
	// with each thread"). Default 1.
	importance float64

	// specified holds the user-supplied proportion for real-time and
	// aperiodic real-time jobs (parts per thousand).
	specified int
	// period is the current period (specified or assigned).
	period sim.Duration
	// periodFixed marks periods that must not be adapted (real-time jobs
	// or explicitly pinned real-rate jobs).
	periodFixed bool

	// g is the per-job PID pressure filter (the paper's G).
	g *pid.Controller
	// lastRaw is the most recent raw summed pressure (before G), used to
	// detect saturated queues for quality exceptions.
	lastRaw float64

	// squished reports whether the last interval reduced this job below
	// its desire.
	squished bool

	// lastCPU is the thread's cpu time at the previous control interval,
	// for usage measurement (the reclamation path of Figure 4).
	lastCPU sim.Duration
	// usageEWMA smooths used/granted over ≈10 intervals. A thread burns
	// its per-period budget in bursts and naps the rest of the period, so
	// a single interval's usage aliases against the nap cycle; the
	// reclamation decision needs the average.
	usageEWMA float64
	// usedPPT smooths the thread's absolute CPU consumption, expressed in
	// parts-per-thousand of the machine, over the same horizon. The
	// miscellaneous heuristic sizes desire from it.
	usedPPT float64
	// lastBlocked is the thread's voluntary block count at the previous
	// interval, for the interactive burst estimator.
	lastBlocked uint64
	// cpuBlockMark is the thread's cpu time at the last completed burst;
	// the CPU consumed between block events, divided by the number of
	// blocks, is the true per-burst cost even when a burst spans many
	// control intervals.
	cpuBlockMark sim.Duration
	// burstEstimate is the low-passed CPU-per-burst estimate for
	// interactive jobs.
	burstEstimate sim.Duration

	// reclaiming marks a miscellaneous job whose smoothed usage fell
	// below the reclaim threshold; hysteresis keeps the heuristic from
	// dithering at the boundary.
	reclaiming bool

	// overloadStreak counts consecutive intervals at saturated positive
	// pressure while squished, used to raise quality exceptions.
	overloadStreak int

	// degraded is the job's rung on the graceful-degradation ladder
	// (LevelRealRate when healthy). Only real-rate jobs descend.
	degraded DegradeLevel
	// flatStreak counts consecutive control intervals with a flat or
	// rejected progress sample; recoverStreak counts consecutive moving
	// samples while degraded. The watchdog trades them off.
	flatStreak    int
	recoverStreak int
	// lastSample is the previous accepted pressure sample, for the
	// watchdog's flat-signal comparison; haveSample gates the first one.
	lastSample float64
	haveSample bool
	// fallback is the fixed proportion held at LevelFallback: the last
	// allocation granted while the signal was still trusted.
	fallback int

	// fill tracks recent summed-pressure samples for the period
	// adaptation heuristic (oscillation detection); nil unless
	// Config.PeriodAdaptation is on.
	fill *metrics.Series

	// stats
	actuations uint64

	// freeNext links the object into the controller's free list while
	// pooled (recycle mode only).
	freeNext *Job
}

// Thread returns the job's primary kernel thread.
func (j *Job) Thread() *kernel.Thread { return j.thread }

// Members returns all of the job's threads. The slice must not be
// modified.
func (j *Job) Members() []*kernel.Thread { return j.members }

// cpuTime sums the CPU consumed by every member.
func (j *Job) cpuTime() sim.Duration {
	var total sim.Duration
	for _, t := range j.members {
		total += t.CPUTime()
	}
	return total
}

// blockedCount sums voluntary blocks across members.
func (j *Job) blockedCount() uint64 {
	var total uint64
	for _, t := range j.members {
		total += t.BlockedCount()
	}
	return total
}

// Class returns the job's taxonomy class.
func (j *Job) Class() Class { return j.class }

// Importance returns the job's weighted-fair-share weight.
func (j *Job) Importance() float64 { return j.importance }

// Allocated returns the proportion (ppt) actuated in the last interval.
func (j *Job) Allocated() int { return j.allocated }

// Desired returns the pre-squish proportion computed in the last interval.
func (j *Job) Desired() int { return j.desired }

// Period returns the job's current period.
func (j *Job) Period() sim.Duration { return j.period }

// Squished reports whether overload reduced the job below its desire in
// the last interval.
func (j *Job) Squished() bool { return j.squished }

// Actuations returns how many times the controller changed this job's
// reservation.
func (j *Job) Actuations() uint64 { return j.actuations }

// Pressure returns the most recent PID output (the paper's Q_t). Only
// real-rate jobs carry the filter; other classes read zero.
func (j *Job) Pressure() float64 {
	if j.g == nil {
		return 0
	}
	return j.g.Output()
}

// Degraded returns the job's rung on the graceful-degradation ladder
// (LevelRealRate when healthy).
func (j *Job) Degraded() DegradeLevel { return j.degraded }
