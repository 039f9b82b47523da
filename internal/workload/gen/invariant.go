package gen

import (
	"errors"
	"fmt"
	"time"

	realrate "repro"
)

// Violation is one invariant breach observed while running a scenario.
type Violation struct {
	// Invariant is the short name of the breached invariant.
	Invariant string
	// Policy is the scheduling discipline the scenario ran under.
	Policy string
	// Time is the simulated instant of detection (post-run checks use the
	// scenario end time).
	Time time.Duration
	// Detail is a human-readable description.
	Detail string
	// Replay, when set by the harness, is the rrexp command line that
	// reproduces the failing scenario deterministically.
	Replay string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s/%s @%v] %s", v.Invariant, v.Policy, v.Time, v.Detail)
	if v.Replay != "" {
		s += "\n    replay: " + v.Replay
	}
	return s
}

// Report aggregates one scenario execution.
type Report struct {
	Policy        string
	Threads       int // successfully spawned, arrivals and churn included
	SpawnRejected int // spawns refused (admission control or bad options)
	Exits         int
	Kills         int
	AdmitOK       int
	AdmitRejected int
	QualityEvents int
	Samples       int
	// FaultEvents, Degradations, and Recoveries count the fault-tolerance
	// activity observed through the public hooks (zero outside the faults
	// family).
	FaultEvents  int
	Degradations int
	Recoveries   int
	// OverloadEvents, Sheds, and Throttled count the overload governor's
	// activity (zero outside the overload family); MaxRung and FinalRung
	// are the highest and last brownout rungs observed.
	OverloadEvents int
	Sheds          int
	Throttled      uint64
	MaxRung        string
	FinalRung      string
	// Sessions summarizes the slo family's per-user session outcomes
	// (zero outside it).
	Sessions   SessionReport
	Violations []Violation
	// TruncatedViolations counts breaches beyond the recording cap.
	TruncatedViolations int
	// CtlStats is the control loop's per-shard counter snapshot at run
	// end (nil under baselines).
	CtlStats []realrate.ShardStat
}

// maxViolations caps recorded breaches per run: a broken invariant tends to
// fire every sample, and 40 instances identify it as well as 4000.
const maxViolations = 40

// sampleInterval is the checker's observation period; it matches the
// controller interval so feedback windows line up with control decisions.
const sampleInterval = 10 * time.Millisecond

// feedbackWindow is the number of samples over which the RBS feedback
// properties are judged.
const feedbackWindow = 12

// faultSettle is the post-window margin inside which the fault-sensitive
// oracles stay suspended: a demoted job needs WatchdogRecovery good
// intervals per rung to climb back, plus filter re-convergence.
const faultSettle = 150 * time.Millisecond

// overloadThreshold mirrors the default admission/squish ceiling of the
// zero-value realrate.Config the harness runs under (the spare 100 ppt
// covers scheduling and interrupt overhead).
const overloadThreshold = 900

// feedbackSample is one per-thread observation.
type feedbackSample struct {
	q        float64 // cumulative pressure Q_t
	desired  int
	alloc    int
	squished bool
	cpu      time.Duration
}

// trackedThread is the checker's view of one spawned thread.
type trackedThread struct {
	th     *realrate.Thread
	name   string
	exited bool
	exits  int
	killed bool
	pinned bool
	// cpuPin is the CPU the thread was spawned with Affinity on (-1:
	// unpinned). A pinned thread must only ever dispatch there.
	cpuPin int
	// rtProp is the currently negotiated reservation for RT threads under
	// RBS (0 otherwise); Allocation must equal it at every sample.
	rtProp int
	// realRate marks threads whose desired allocation is the controller's
	// clamp(K·Q) — the feedback-tracking invariant applies to them.
	realRate bool
	window   []feedbackSample
	// allocEWMA smooths the allocation over roughly the last third of a
	// second (α=0.03 per 10 ms sample). End-of-run snapshots read this
	// instead of the instantaneous value: squish transients and the event
	// plane's staleness windows make any single instant noisy.
	allocEWMA float64
	ewmaSeen  bool
}

// checker observes one scenario execution and accumulates violations. It
// implements realrate.Observer and additionally samples system state every
// control interval.
type checker struct {
	sys    *realrate.System
	policy string
	sc     *Scenario
	rbs    bool

	queues  []*realrate.Queue
	tracked []*trackedThread
	byTh    map[*realrate.Thread]*trackedThread

	admitOK, admitRej int
	spawnRejected     int
	exits, kills      int
	quality           int
	samples           int
	overCommitStreak  int
	lastAdmitOK       int

	// cpus is the machine's CPU count; migrations counts OnMigration
	// events for the migration-bookkeeping invariant.
	cpus       int
	migrations uint64

	// Fault-tolerance oracles (the faults family). faultSpecs is the
	// planned schedule; faultTargets the thread names it aims at;
	// globalFault is set when any spec matches every thread (Target ""
	// signal/actuation faults, CPU stalls, tick jitter). degradeDepth
	// tracks each thread's net rungs down the ladder via the
	// OnDegrade/OnRecover pairing; stallTotal widens the work-conservation
	// idle budget; lastSignalFaultEnd anchors the bounded-recovery check.
	faultSpecs         []realrate.FaultSpec
	faultTargets       map[string]bool
	actTargets         map[string]bool
	globalFault        bool
	globalActFault     bool
	hasActFaults       bool
	degradeDepth       map[string]int
	faultEvents        int
	degrades, recovers int
	stallTotal         time.Duration
	lastSignalFaultEnd time.Duration

	// Overload-governor oracles. overload mirrors Spec.Overload and gates
	// the recovery-to-normal oracle (only the overload family's storm
	// provably subsides); governed is true whenever a governor is armed at
	// all — the overload family OR the slo session family — and gates the
	// event-legality checks. rung tracks the ladder through OnOverload
	// events (the governor starts at normal, so "" means "no movement
	// yet"); maxRung is the deepest rung seen.
	overload       bool
	governed       bool
	overloadEvents int
	sheds          int
	rung           string
	maxRung        string

	violations []Violation
	truncated  int
}

func newChecker(sys *realrate.System, policy string, sc *Scenario) *checker {
	c := &checker{
		sys:          sys,
		policy:       policy,
		sc:           sc,
		rbs:          policy == "rbs",
		byTh:         make(map[*realrate.Thread]*trackedThread),
		cpus:         sys.CPUs(),
		faultSpecs:   sc.Spec.Faults,
		faultTargets: make(map[string]bool),
		actTargets:   make(map[string]bool),
		degradeDepth: make(map[string]int),
		overload:     sc.Spec.Overload,
		governed:     sc.Spec.Overload || sc.Spec.Sessions.enabled(),
		rung:         "normal",
		maxRung:      "normal",
	}
	for _, f := range sc.Spec.Faults {
		if f.Target == "" {
			c.globalFault = true
		} else {
			c.faultTargets[f.Target] = true
		}
		switch f.Kind {
		case realrate.FaultCPUStall:
			c.stallTotal += f.For
		case realrate.FaultDropActuation, realrate.FaultDelayActuation:
			c.hasActFaults = true
			if f.Target == "" {
				c.globalActFault = true
			} else {
				c.actTargets[f.Target] = true
			}
		case realrate.FaultFreezeSignal, realrate.FaultJumpSignal,
			realrate.FaultBadSignal, realrate.FaultStuckThread:
			if end := f.At + f.For; end > c.lastSignalFaultEnd {
				c.lastSignalFaultEnd = end
			}
		}
	}
	return c
}

// inFaultWindow reports whether now falls inside any planned fault window
// (with the settle margin): the fault-sensitive oracles are suspended
// there — a frozen or perturbed signal legitimately decouples desire from
// the observed pressure trend, and a degraded job tracks its fallback.
func (c *checker) inFaultWindow(now time.Duration) bool {
	for _, f := range c.faultSpecs {
		if now >= f.At && now < f.At+f.For+faultSettle {
			return true
		}
	}
	return false
}

// actExempt reports whether an actuation fault can explain thread name's
// allocation diverging from the controller's intent.
func (c *checker) actExempt(name string) bool {
	return c.hasActFaults && (c.globalActFault || c.actTargets[name])
}

// violate records a breach, capped.
func (c *checker) violate(invariant string, now time.Duration, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Policy:    c.policy,
		Time:      now,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// spawned records a public Spawn outcome. cpuPin is the Affinity CPU the
// spawn requested, or -1. Like every bookkeeping mutator below it is
// nil-receiver safe: RunOpts.NoInvariants runs with no checker at all.
func (c *checker) spawned(th *realrate.Thread, err error, pinned bool, cpuPin int) {
	if c == nil {
		return
	}
	if err != nil {
		c.spawnRejected++
		return
	}
	tt := &trackedThread{th: th, name: th.Name(), pinned: pinned, cpuPin: cpuPin}
	c.tracked = append(c.tracked, tt)
	c.byTh[th] = tt
}

// watchQueue adds a queue to the conservation checks.
func (c *checker) watchQueue(q *realrate.Queue) {
	if c == nil {
		return
	}
	c.queues = append(c.queues, q)
}

// watchRealRate marks a thread for the feedback-tracking invariant.
func (c *checker) watchRealRate(th *realrate.Thread, err error) {
	if c == nil || err != nil || th == nil || !c.rbs {
		return
	}
	if tt := c.byTh[th]; tt != nil {
		tt.realRate = true
	}
}

// setNegotiated records the reservation an RT thread currently holds.
func (c *checker) setNegotiated(th *realrate.Thread, prop int) {
	if c == nil {
		return
	}
	if tt := c.byTh[th]; tt != nil && c.rbs {
		tt.rtProp = prop
	}
}

// killed records a forced removal.
func (c *checker) killed(th *realrate.Thread, now time.Duration) {
	if c == nil {
		return
	}
	c.kills++
	if tt := c.byTh[th]; tt != nil {
		tt.killed = true
	}
}

// --- realrate.Observer ---

// OnDispatch implements realrate.Observer.
func (c *checker) OnDispatch(now time.Duration, th *realrate.Thread, cpu int) {
	if cpu < 0 || cpu >= c.cpus {
		c.violate("cpu-range", now, "dispatch on CPU %d outside [0,%d)", cpu, c.cpus)
	}
	if th == nil {
		return // the controller's own thread has no public handle
	}
	tt := c.byTh[th]
	if tt == nil {
		return
	}
	if tt.exited {
		c.violate("dispatch-after-exit", now, "thread %s dispatched after retirement", tt.name)
	}
	if tt.cpuPin >= 0 && cpu != tt.cpuPin {
		c.violate("affinity", now, "thread %s pinned to CPU %d but dispatched on CPU %d",
			tt.name, tt.cpuPin, cpu)
	}
}

// OnMigration implements realrate.Observer: every migration must be
// between two distinct valid CPUs and must never move a pinned thread.
// The counts are reconciled against the kernel's books in finish.
func (c *checker) OnMigration(now time.Duration, th *realrate.Thread, from, to int) {
	c.migrations++
	if from == to || from < 0 || to < 0 || from >= c.cpus || to >= c.cpus {
		c.violate("migration-bookkeeping", now, "migration %d -> %d outside the %d-CPU machine", from, to, c.cpus)
	}
	if th != nil {
		if tt := c.byTh[th]; tt != nil && tt.cpuPin >= 0 {
			c.violate("affinity", now, "pinned thread %s migrated %d -> %d", tt.name, from, to)
		}
	}
}

// OnActuation implements realrate.Observer. An actuation that cannot be
// resolved to a public handle means the controller actuated a job whose
// thread already retired (the exit hook cleared the handle from the
// kernel thread's User field but missed the controller teardown).
func (c *checker) OnActuation(now time.Duration, th *realrate.Thread, prop int, period time.Duration) {
	if prop < 0 {
		c.violate("floor", now, "negative actuation %d ppt", prop)
	}
	if period <= 0 {
		c.violate("floor", now, "non-positive actuated period %v", period)
	}
	if th == nil {
		c.violate("actuation-unindexed", now, "actuation of %d ppt for an unindexed thread", prop)
		return
	}
	if tt := c.byTh[th]; tt != nil && tt.exited {
		c.violate("actuation-after-exit", now, "thread %s actuated after retirement", tt.name)
	}
}

// OnQuality implements realrate.Observer.
func (c *checker) OnQuality(ev realrate.QualityEvent) { c.quality++ }

// OnAdmission implements realrate.Observer. Every rejection must carry
// one of the typed public errors — *AdmissionError, *ReservationError, or
// *OverloadError — and an overload rejection is only legal when a
// governor is actually installed (the overload family under RBS) and must
// carry a positive retry-after hint.
func (c *checker) OnAdmission(ev realrate.AdmissionEvent) {
	if ev.Accepted {
		c.admitOK++
		return
	}
	c.admitRej++
	if ev.Err == nil {
		c.violate("admission", ev.Time, "rejection without error for %d ppt", ev.Requested)
		return
	}
	var (
		ae *realrate.AdmissionError
		re *realrate.ReservationError
		oe *realrate.OverloadError
	)
	switch {
	case errors.As(ev.Err, &oe):
		if !c.governed || !c.rbs {
			c.violate("overload-unplanned", ev.Time,
				"OverloadError %q without a governor (governed=%v policy=%s)", ev.Err, c.governed, c.policy)
		}
		if oe.RetryAfter <= 0 {
			c.violate("overload-backpressure", ev.Time,
				"OverloadError at rung %q with non-positive retry-after %v", oe.Rung, oe.RetryAfter)
		}
	case errors.As(ev.Err, &ae), errors.As(ev.Err, &re):
	default:
		c.violate("typed-error", ev.Time, "rejection with untyped error %T: %v", ev.Err, ev.Err)
	}
}

// OnExit implements realrate.Observer.
func (c *checker) OnExit(now time.Duration, th *realrate.Thread) {
	c.exits++
	tt := c.byTh[th]
	if tt == nil {
		c.violate("exit-unknown", now, "OnExit for a thread never spawned publicly")
		return
	}
	tt.exits++
	if tt.exits > 1 {
		c.violate("double-exit", now, "thread %s exited %d times", tt.name, tt.exits)
	}
	if tt.pinned {
		c.violate("lost-thread", now, "pinned hog %s exited", tt.name)
	}
	tt.exited = true
}

// OnFault implements realrate.Observer. In a scenario with no fault plan
// any fault event is an anomaly: the controller detected garbage nobody
// injected.
func (c *checker) OnFault(ev realrate.FaultEvent) {
	c.faultEvents++
	if len(c.faultSpecs) == 0 {
		c.violate("fault-unplanned", ev.Time, "fault %q (%s) without a fault plan",
			ev.Kind, ev.Detail)
	}
}

// OnDegrade implements realrate.Observer: only the feedback controller's
// watchdog demotes, so baselines must never degrade; depth is bounded by
// the ladder's two lower rungs; and — absent machine-wide faults — only
// threads the plan targets may degrade (fault isolation).
func (c *checker) OnDegrade(ev realrate.DegradeEvent) {
	c.degrades++
	if !c.rbs {
		c.violate("ladder-pairing", ev.Time, "OnDegrade under policy %s (no controller runs)", c.policy)
		return
	}
	name := "?"
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	c.degradeDepth[name]++
	if d := c.degradeDepth[name]; d > 2 {
		c.violate("ladder-pairing", ev.Time, "thread %s demoted below the misc rung (depth %d)", name, d)
	}
	if !c.globalFault && !c.faultTargets[name] {
		c.violate("fault-isolation", ev.Time, "thread %s degraded but no planned fault targets it", name)
	}
}

// OnRecover implements realrate.Observer: every promotion pairs with an
// earlier demotion of the same thread.
func (c *checker) OnRecover(ev realrate.RecoverEvent) {
	c.recovers++
	name := "?"
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	c.degradeDepth[name]--
	if c.degradeDepth[name] < 0 {
		c.violate("ladder-pairing", ev.Time, "thread %s recovered without a matching degrade", name)
	}
}

// rungLevel orders the brownout ladder for the one-step-at-a-time check.
func rungLevel(name string) int {
	switch name {
	case "normal":
		return 0
	case "throttle":
		return 1
	case "shed":
		return 2
	case "freeze":
		return 3
	}
	return -1
}

// OnOverload implements realrate.Observer: ladder movements only happen
// with a governor installed, move exactly one rung at a time, and chain —
// each movement starts from the rung the previous one ended on.
func (c *checker) OnOverload(ev realrate.OverloadEvent) {
	c.overloadEvents++
	if !c.governed || !c.rbs {
		c.violate("overload-unplanned", ev.Time,
			"OnOverload %s -> %s without a governor (governed=%v policy=%s)",
			ev.From, ev.To, c.governed, c.policy)
		return
	}
	from, to := rungLevel(ev.From), rungLevel(ev.To)
	if from < 0 || to < 0 {
		c.violate("overload-ladder", ev.Time, "unknown rung in movement %q -> %q", ev.From, ev.To)
		return
	}
	if d := to - from; d != 1 && d != -1 {
		c.violate("overload-ladder", ev.Time, "ladder moved %d rungs at once (%s -> %s)", d, ev.From, ev.To)
	}
	if ev.From != c.rung {
		c.violate("overload-ladder", ev.Time,
			"movement starts at %q but the ladder was last seen at %q", ev.From, c.rung)
	}
	c.rung = ev.To
	if rungLevel(ev.To) > rungLevel(c.maxRung) {
		c.maxRung = ev.To
	}
}

// OnShed implements realrate.Observer: the governor only sheds
// miscellaneous threads (reservations, real-rate pipelines, and
// interactive threads are never touched), only at the shed rung or above,
// and always a minimum-importance victim among the live miscellaneous
// threads.
func (c *checker) OnShed(ev realrate.ShedEvent) {
	c.sheds++
	if !c.governed || !c.rbs {
		c.violate("overload-unplanned", ev.Time,
			"OnShed without a governor (governed=%v policy=%s)", c.governed, c.policy)
		return
	}
	name := "?"
	if ev.Thread != nil {
		name = ev.Thread.Name()
	}
	if ev.Class != "miscellaneous" {
		c.violate("shed-class", ev.Time, "shed %s of class %q (only miscellaneous may be shed)",
			name, ev.Class)
	}
	if rungLevel(ev.Rung) < rungLevel("shed") {
		c.violate("overload-ladder", ev.Time, "shed of %s at rung %q (below shed)", name, ev.Rung)
	}
	// Importance order: the event fires before the victim retires, so the
	// victim itself is still live and the minimum includes it.
	for _, tt := range c.tracked {
		if tt.exited || tt.th.State() == "exited" || tt.th.Class() != "miscellaneous" {
			continue
		}
		if imp := tt.th.Importance(); imp < ev.Importance {
			c.violate("shed-order", ev.Time,
				"shed %s (importance %.1f) while %s (importance %.1f) was live",
				name, ev.Importance, tt.name, imp)
		}
	}
}

// startSampling arms the periodic observation.
func (c *checker) startSampling() {
	if c == nil {
		return
	}
	c.sys.Every(sampleInterval, c.sample)
}

// sample is one periodic observation: queue conservation, no-dual-run,
// admission accounting, floors, and the RBS feedback windows.
func (c *checker) sample(now time.Duration) {
	c.samples++
	c.checkQueues(now)
	if c.cpus > 1 {
		c.checkNoDualRun(now)
	}
	if !c.rbs {
		return
	}
	// Admission never over-commits — in the paper's sense. Hard
	// reservations are admitted against the threshold counting only the
	// FLOORS of squishable jobs, so the instantaneous policy total may
	// transiently exceed the machine between an admission and the next
	// squish; under sustained churn every interval can re-create a fresh
	// overshoot. What must hold: the squish reclaims within a control
	// interval — the total cannot stay above the machine across intervals
	// in which nothing new was admitted — and the live hard reservations
	// alone never exceed the admission ceiling.
	// Inside an actuation-fault window the controller's pushes are being
	// dropped or deferred by design, so allocations lag its intent: the
	// squish-reclaim and per-thread allocation oracles are suspended for
	// the affected threads until the window (plus settle) closes.
	actFault := c.hasActFaults && c.inFaultWindow(now)
	machine := realrate.PPT * c.cpus
	if tp := c.sys.TotalProportion(); tp > machine && !actFault {
		if c.admitOK != c.lastAdmitOK {
			c.overCommitStreak = 0 // fresh admission: a new transient is allowed
		}
		c.overCommitStreak++
		if c.overCommitStreak >= 3 {
			c.violate("over-commit", now,
				"total proportion %d ppt > %d across %d admission-free intervals (squish failed to reclaim)",
				tp, machine, c.overCommitStreak)
		}
	} else {
		c.overCommitStreak = 0
	}
	c.lastAdmitOK = c.admitOK
	rtSum := 0
	for _, tt := range c.tracked {
		if !tt.exited {
			rtSum += tt.rtProp
		}
	}
	if ceiling := overloadThreshold * c.cpus; rtSum > ceiling {
		c.violate("over-commit", now,
			"live hard reservations sum to %d ppt > admission ceiling %d", rtSum, ceiling)
	}
	for _, tt := range c.tracked {
		if tt.exited {
			continue
		}
		alloc := tt.th.Allocation()
		if !tt.ewmaSeen {
			tt.allocEWMA, tt.ewmaSeen = float64(alloc), true
		} else {
			tt.allocEWMA += 0.03 * (float64(alloc) - tt.allocEWMA)
		}
		if alloc < 0 {
			c.violate("floor", now, "thread %s allocation %d < 0", tt.name, alloc)
		}
		exempt := actFault && c.actExempt(tt.name)
		// Squish preserves floors: an unsquished job with a positive
		// desire is never starved to zero.
		if !tt.th.Squished() && tt.th.Desired() > 0 && alloc == 0 &&
			tt.th.Class() != "unmanaged" && !exempt {
			c.violate("floor", now, "thread %s unsquished with desired %d but zero allocation",
				tt.name, tt.th.Desired())
		}
		// Reservations are exact: an admitted RT thread holds precisely
		// what it negotiated, at every instant.
		if tt.rtProp > 0 && alloc != tt.rtProp && !exempt {
			c.violate("reservation", now, "rt thread %s allocated %d ppt, negotiated %d",
				tt.name, alloc, tt.rtProp)
		}
		if tt.realRate {
			c.feedbackSample(tt, now)
		}
	}
}

// checkNoDualRun asserts that no thread occupies two CPUs at once. The
// engine is sequential, so the per-CPU current snapshot is consistent at
// every sample instant (the kernel additionally panics if a policy ever
// Picks a running thread, which catches violations between samples).
func (c *checker) checkNoDualRun(now time.Duration) {
	stats := c.sys.CPUStats()
	for i, a := range stats {
		if a.Current == nil {
			continue
		}
		for _, b := range stats[i+1:] {
			if b.Current == a.Current {
				c.violate("no-dual-run", now, "thread %s running on CPU %d and CPU %d at once",
					a.Current.Name(), a.CPU, b.CPU)
			}
		}
	}
}

// checkQueues asserts conservation on every watched queue: bytes are
// neither lost nor invented, and the fill respects the bound. The engine
// is sequential, so this holds at every instant, not just at the end.
func (c *checker) checkQueues(now time.Duration) {
	for _, q := range c.queues {
		if q.Produced() != q.Consumed()+q.Fill() {
			c.violate("queue-conservation", now,
				"queue %s: produced %d != consumed %d + fill %d",
				q.Name(), q.Produced(), q.Consumed(), q.Fill())
		}
		if q.Fill() < 0 || q.Fill() > q.Size() {
			c.violate("queue-bound", now, "queue %s: fill %d outside [0,%d]",
				q.Name(), q.Fill(), q.Size())
		}
	}
}

// feedbackSample advances one thread's feedback window and judges it when
// full: over a window where the job was never squished and demonstrably
// used its allocation, the desired proportion must move with the sign of
// the cumulative pressure trend (Figure 4: P' = k·Q_t). The tolerance
// absorbs the P−C reclamation path, which may step the desire down by
// ReclaimC per interval while usage hovers near the reclaim threshold;
// what cannot happen is the desire moving hundreds of ppt against the
// pressure trend.
func (c *checker) feedbackSample(tt *trackedThread, now time.Duration) {
	// Fault-targeted threads are exempt for good: their signal history is
	// corrupt. Everyone else pauses (and restarts the window) while any
	// fault window is open — cross-thread coupling through shared queues
	// and actuation timing makes the trend test unsound there.
	if c.faultTargets[tt.name] {
		return
	}
	if len(c.faultSpecs) > 0 && c.inFaultWindow(now) {
		tt.window = tt.window[:0]
		return
	}
	tt.window = append(tt.window, feedbackSample{
		q:        tt.th.Pressure(),
		desired:  tt.th.Desired(),
		alloc:    tt.th.Allocation(),
		squished: tt.th.Squished(),
		cpu:      tt.th.CPUTime(),
	})
	if len(tt.window) < feedbackWindow {
		return
	}
	w := tt.window
	first, last := w[0], w[len(w)-1]
	tt.window = tt.window[1:] // slide

	var granted time.Duration
	squished := false
	for _, s := range w[:len(w)-1] {
		granted += time.Duration(int64(sampleInterval) * int64(s.alloc) / realrate.PPT)
		squished = squished || s.squished
	}
	if squished || granted <= 0 {
		return
	}
	usage := float64(last.cpu-first.cpu) / float64(granted)
	dq := last.q - first.q
	const (
		qTrend    = 0.15 // minimum |ΔQ| that counts as a trend
		tolerance = 100  // ppt of against-trend movement absorbed
	)
	if dq > qTrend && usage >= 0.8 && last.desired < first.desired-tolerance {
		c.violate("feedback-sign", now,
			"thread %s: pressure rose %.2f (usage %.0f%%) but desire fell %d -> %d ppt",
			tt.name, dq, usage*100, first.desired, last.desired)
	}
	if dq < -qTrend && last.desired > first.desired+tolerance {
		c.violate("feedback-sign", now,
			"thread %s: pressure fell %.2f but desire rose %d -> %d ppt",
			tt.name, dq, first.desired, last.desired)
	}
}

// finish runs the post-run checks.
func (c *checker) finish() {
	if c == nil {
		return
	}
	end := c.sys.Now()
	c.checkQueues(end)

	var busy time.Duration
	liveHog := false
	for _, tt := range c.tracked {
		busy += tt.th.CPUTime()
		state := tt.th.State()
		switch state {
		case "ready", "running", "blocked", "sleeping", "exited":
		default:
			c.violate("lost-thread", end, "thread %s in unknown state %q", tt.name, state)
		}
		// Exit bookkeeping closes: a kernel-exited thread must have been
		// announced exactly once (a miss means the exit hook lost the
		// handle), and an announced thread must really be gone.
		if state == "exited" && !tt.exited {
			c.violate("exit-hook", end, "thread %s exited without an OnExit (stale index?)", tt.name)
		}
		if tt.exited && state != "exited" {
			c.violate("exit-hook", end, "thread %s got OnExit but is %q", tt.name, state)
		}
		if tt.killed && state != "exited" {
			c.violate("lost-thread", end, "killed thread %s still %q", tt.name, state)
		}
		if tt.pinned {
			if state == "exited" {
				c.violate("lost-thread", end, "pinned hog %s exited", tt.name)
			} else {
				liveHog = true
				// Lottery is exempt: its guarantees are probabilistic, and
				// a short run can draw against one thread throughout —
				// which is precisely the paper's critique of it.
				if tt.th.CPUTime() == 0 && c.policy != "lottery" {
					c.violate("starvation", end, "pinned hog %s got zero CPU over %v", tt.name, end)
				}
			}
		}
	}

	// Closed time accounting: thread time + controller + idle + overhead
	// equals the machine's capacity (elapsed × CPUs). A leak here means
	// the kernel charged (or dropped) segments it should not have — the
	// bug class Retire-under-churn exercises.
	st := c.sys.Stats()
	capacity := st.Elapsed * time.Duration(c.cpus)
	total := busy + c.sys.ControllerCPU() + st.Idle + st.SchedOverhead
	if diff := (capacity - total).Abs(); diff > 2*time.Millisecond*time.Duration(c.cpus) {
		c.violate("time-accounting", end,
			"leaks %v (capacity %v = threads %v + controller %v + idle %v + overhead %v)",
			diff, capacity, busy, c.sys.ControllerCPU(), st.Idle, st.SchedOverhead)
	}
	if st.Dispatches == 0 || st.Ticks == 0 {
		c.violate("lost-thread", end, "no scheduling activity: %+v", st)
	}

	// Migration bookkeeping closes three ways: the observer event count,
	// the kernel's machine-wide counter, and the per-CPU pull counters
	// must all agree; a single-CPU machine must never migrate.
	cpuStats := c.sys.CPUStats()
	var pulled uint64
	for _, cs := range cpuStats {
		pulled += cs.Migrations
	}
	if c.migrations != st.Migrations || pulled != st.Migrations {
		c.violate("migration-bookkeeping", end,
			"migration counts disagree: %d observer events, %d kernel total, %d per-CPU pulls",
			c.migrations, st.Migrations, pulled)
	}
	if c.cpus == 1 && st.Migrations != 0 {
		c.violate("migration-bookkeeping", end, "%d migrations on a single-CPU machine", st.Migrations)
	}

	// Work conservation: with an immortal hog runnable the machine cannot
	// idle much. RBS naps budget-exhausted threads until their next period
	// (§3.1) — the hog included, once its squished allocation is spent —
	// so its cap is generous (heavy RT tasksets legitimately idle ~40%);
	// it still catches a scheduler that wedges the hog outright. One hog
	// occupies one CPU, so on an N-CPU machine the other N−1 may idle.
	if liveHog {
		idleCap := c.sc.Spec.Duration / 8
		if c.rbs {
			idleCap = c.sc.Spec.Duration / 2
		}
		idleCap += c.sc.Spec.Duration * time.Duration(c.cpus-1)
		// A stalled CPU idles by injection, not by scheduler defect.
		idleCap += c.stallTotal
		if st.Idle > idleCap {
			c.violate("work-conservation", end,
				"idled %v of %v capacity with hog runnable (cap %v)", st.Idle, capacity, idleCap)
		}
	}

	// Per-CPU work conservation: a CPU with its own immortal pinned hog
	// can never idle much, no matter what the other CPUs do — the sharded
	// dispatcher must keep every shard running its own work.
	for _, tt := range c.tracked {
		if !tt.pinned || tt.cpuPin < 0 || tt.th.State() == "exited" {
			continue
		}
		idleCap := c.sc.Spec.Duration / 8
		if c.rbs {
			idleCap = c.sc.Spec.Duration / 2
		}
		idleCap += c.stallTotal
		if idle := cpuStats[tt.cpuPin].Idle; idle > idleCap {
			c.violate("cpu-work-conservation", end,
				"CPU %d idled %v of %v with pinned hog %s runnable (cap %v)",
				tt.cpuPin, idle, st.Elapsed, tt.name, idleCap)
		}
	}

	// Brownout recovery: the overload family's arrival storm ends at 55%
	// of the run and its lifetimes are clamped, so by the end demand has
	// drained and the governor must have unwound the ladder to normal.
	// The checker's event-chained view and the system's own rung must
	// agree throughout, and they must both be back at normal here.
	if c.overload && c.rbs {
		h := c.sys.Health()
		if h.OverloadRung != c.rung {
			c.violate("overload-ladder", end,
				"system reports rung %q but ladder events chain to %q", h.OverloadRung, c.rung)
		}
		if c.rung != "normal" {
			c.violate("overload-recovery", end,
				"ladder still at %q at run end (max rung %q, %d sheds, %d throttled)",
				c.rung, c.maxRung, c.sheds, h.Throttled)
		}
	}

	// Bounded recovery: once the last signal-affecting fault clears with
	// enough runway before the end of the run, every surviving real-rate
	// job must have climbed back to the healthy rung.
	if c.rbs && len(c.faultSpecs) > 0 && end >= c.lastSignalFaultEnd+faultSettle {
		for _, tt := range c.tracked {
			if tt.exited {
				continue
			}
			deg := tt.th.Degraded()
			if d := c.degradeDepth[tt.name]; d != 0 || (deg != "" && deg != "real-rate") {
				c.violate("bounded-recovery", end,
					"thread %s still on rung %q (net depth %d) %v after the last signal fault cleared",
					tt.name, deg, d, end-c.lastSignalFaultEnd)
			}
		}
	}
}

// report snapshots the run outcome.
func (c *checker) report() Report {
	return Report{
		Policy:              c.policy,
		Threads:             len(c.tracked),
		SpawnRejected:       c.spawnRejected,
		Exits:               c.exits,
		Kills:               c.kills,
		AdmitOK:             c.admitOK,
		AdmitRejected:       c.admitRej,
		QualityEvents:       c.quality,
		Samples:             c.samples,
		FaultEvents:         c.faultEvents,
		Degradations:        c.degrades,
		Recoveries:          c.recovers,
		OverloadEvents:      c.overloadEvents,
		Sheds:               c.sheds,
		Throttled:           c.sys.Health().Throttled,
		MaxRung:             c.maxRung,
		FinalRung:           c.rung,
		Violations:          c.violations,
		TruncatedViolations: c.truncated,
		CtlStats:            c.sys.ShardStats(),
	}
}
