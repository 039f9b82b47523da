package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// This file is the controller's one control loop. The job set is split
// across Config.Shards shard threads; each ticks once per interval and
// visits only its own list. The zero configuration is a single periodic
// shard, the paper's 100 Hz controller thread. Larger machines split the
// same loop three ways:
//
//   - Sharding: each shard owns the jobs resident on its CPU (thread-ID
//     hashed on a uniprocessor) and runs pass 1 and pass 2 over only its
//     own list. Global state (total adaptive demand, the governor's
//     saturation signals) is reconciled through small per-shard
//     aggregates republished at every shard tick.
//
//   - Staggering: shard s ticks at offset s·Interval/S inside the 10 ms
//     interval, so control work is spread across the interval instead of
//     arriving as one burst that preempts the workload.
//
//   - Event-driven sampling: with Config.EventDriven the progress registry
//     pushes dirty marks on queue-fill changes, and a shard re-samples a
//     job only when its signal moved by at least Threshold since the last
//     sample, or when the MaxStaleness bound elapsed. Idle jobs cost a few
//     compares per interval; their estimators integrate over the skipped
//     epochs on the next sample, so allocations converge to what the
//     periodic sweep would have computed.
//
// The whole simulation is single-threaded (shard threads are simulated
// kernel threads serialized by the engine), so the shards share the
// controller's scratch buffers and need no locking.

// maxShards bounds the shard count.
const maxShards = 64

// shard is one slice of the control loop: a list of owned jobs, a
// simulated thread that ticks once per interval at this shard's stagger
// offset, and the aggregates republished at every tick.
type shard struct {
	id     int
	thread *kernel.Thread

	list []*Job
	// live counts the controlled jobs whose home is this shard, for the
	// periodic cost model.
	live int

	phase     int
	nextWake  sim.Time
	computeOp kernel.OpCompute
	sleepOp   kernel.OpSleepUntil

	// Published aggregates, refreshed at every tick of this shard; other
	// shards read the latest published value (an epoch-versioned
	// aggregate — at most one epoch stale).
	//
	// desireRaw is the un-clamped adaptive demand, the numerator of this
	// shard's capacity slice. govDesire and govGranted are the
	// MaxProportion-clamped demand and granted proportion over all jobs,
	// summed across shards for the governor at each epoch's end.
	// allocAdaptive is the granted proportion over adaptive jobs only,
	// so an event-mode tick can subtract the un-sampled jobs' holdings
	// from its capacity slice.
	desireRaw     int
	govDesire     int
	govGranted    int
	allocAdaptive int

	stat ShardStat
}

// ShardStat is one control shard's counters.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Ticks counts the shard's completed control ticks.
	Ticks uint64
	// Sampled and Skipped count job visits that did and did not re-sample.
	// Sampled counts every visited job, reservation holders included, so
	// it is not the adaptive-sample count; periodic mode samples every job
	// every tick and Skipped stays 0.
	Sampled uint64
	Skipped uint64
	// Handoffs counts jobs re-homed to another shard after migrating.
	Handoffs uint64
	// LastSampled and LastSkipped are the most recent tick's work counts.
	LastSampled int
	LastSkipped int
}

// Start spawns the shard threads. The shards split the controller's
// reservation (the last shard takes the remainder, so the admitted total
// is exactly Reservation.Proportion) and stagger their first wakes across
// the control interval: shard s first ticks at Start+Interval +
// s·Interval/S. A single periodic shard is the paper's controller thread:
// it is named "controller" and left unpinned, as the prototype's was;
// every other shard is pinned to CPU s mod CPUs.
func (c *Controller) Start() {
	if c.shards[0].thread != nil {
		panic("core: controller started twice")
	}
	res := c.cfg.Reservation
	n := len(c.shards)
	each := res.Proportion / n
	now := c.kern.Now()
	for _, s := range c.shards {
		prop := each
		if s.id == n-1 {
			prop = res.Proportion - each*(n-1)
		}
		name, affinity := fmt.Sprintf("ctl%d", s.id), s.id%c.ncpu
		if n == 1 && !c.cfg.EventDriven {
			name, affinity = "controller", kernel.AffinityAny
		}
		s.thread = c.kern.SpawnAffinity(name, kernel.ProgramFunc(c.programOf(s)), affinity)
		if err := c.policy.SetReservation(s.thread, rbs.Reservation{Proportion: prop, Period: res.Period}); err != nil {
			panic(fmt.Sprintf("core: shard %d reservation: %v", s.id, err))
		}
		c.admitted += prop
		s.nextWake = now.Add(c.cfg.Interval).Add(sim.Duration(int64(c.cfg.Interval) * int64(s.id) / int64(n)))
		s.stat.LastSampled = len(s.list)
	}
}

// programOf builds one shard's thread program: burn the modeled cost,
// tick, sleep to the next staggered wake.
//
// The cost follows Figure 5 with the base split across the shards:
// BaseCost/S plus PerJobCost per job. A periodic shard charges for the
// jobs homed on it at the wake, so one shard charges exactly BaseCost +
// PerJobCost·n for the n jobs live at that moment, the prototype's cost.
// An event-driven shard charges full freight for the jobs its previous
// tick sampled and 1/8 for the skip-path compares.
func (c *Controller) programOf(s *shard) func(t *kernel.Thread, now sim.Time) kernel.Op {
	n := sim.Cycles(len(c.shards))
	return func(t *kernel.Thread, now sim.Time) kernel.Op {
		s.phase++
		if s.phase%2 == 1 {
			var work sim.Cycles
			if c.cfg.EventDriven {
				work = (sim.Cycles(s.stat.LastSampled) + sim.Cycles(s.stat.LastSkipped)/8) * c.cfg.PerJobCost
			} else {
				work = sim.Cycles(s.live) * c.cfg.PerJobCost
			}
			s.computeOp.Cycles = c.cfg.BaseCost/n + work
			return &s.computeOp
		}
		c.tick(s, now)
		wake := s.nextWake
		s.nextWake = s.nextWake.Add(c.cfg.Interval)
		s.sleepOp.At = wake
		return &s.sleepOp
	}
}

// homeOf returns the shard a job's primary thread is resident on: its CPU
// on a multiprocessor, a thread-ID hash on a uniprocessor. The job caches
// it in j.shard; only the multiprocessor home moves without a change of
// primary thread.
func (c *Controller) homeOf(j *Job) int {
	if c.ncpu > 1 {
		return j.thread.CPU() % len(c.shards)
	}
	return j.thread.ID() % len(c.shards)
}

// rehome moves a job's cached home, and its live count, to shard home.
// The job joins that shard's list at its current shard's next visit.
func (c *Controller) rehome(j *Job, home int) {
	if home != j.shard {
		c.shards[j.shard].live--
		c.shards[home].live++
		j.shard = home
	}
}

// markDirty is the registry's dirty hook in event-driven mode: a watched
// metric of one of the thread's job's signals moved.
func (c *Controller) markDirty(t *kernel.Thread) {
	if j := c.byThr.At(t); j != nil {
		j.dirty = true
	}
}

// watchedOf reports whether dirty marks cover all of the job's progress
// signals: at least one member registered metrics and every registered
// metric is watchable.
func (c *Controller) watchedOf(j *Job) bool {
	any := false
	for _, t := range j.members {
		if !c.reg.HasMetrics(t) {
			continue
		}
		any = true
		if !c.reg.Watched(t) {
			return false
		}
	}
	return any
}

// peekPressure reads a job's current raw summed pressure without any side
// effects: no fault perturbation, no watchdog, no filter step.
func (c *Controller) peekPressure(j *Job, now sim.Time) float64 {
	var sum float64
	for _, t := range j.members {
		sum += c.reg.SummedPressure(t, now)
	}
	if sum > 0.5 {
		sum = 0.5
	}
	if sum < -0.5 {
		sum = -0.5
	}
	return sum
}

// shouldSample decides whether a shard visit re-samples the job this
// epoch. Periodic mode always samples. Event mode samples never-sampled
// jobs, jobs past the staleness bound, and watched real-rate jobs whose
// dirty signal moved at least Threshold from the last sampled raw
// pressure; everything else (quiet watched jobs, unwatched or
// metric-less classes inside the bound) is skipped.
func (c *Controller) shouldSample(j *Job, now sim.Time) bool {
	if !c.cfg.EventDriven || !j.sampled {
		return true
	}
	if c.epoch-j.sampleEpoch >= c.stalenessEpochs {
		return true
	}
	if j.class == RealRate && j.watched {
		if !j.dirty {
			return false
		}
		d := c.peekPressure(j, now) - j.lastRaw
		if d < 0 {
			d = -d
		}
		if d >= c.cfg.Threshold {
			return true
		}
		j.dirty = false
	}
	return false
}

// tick runs one shard's slice of a control epoch.
//
// Shard 0's tick opens the epoch (prologue: epoch count, miss reaction,
// delayed actuations); the last shard's tick closes it (governor
// observation over the summed aggregates, OnStep). In between, each
// shard visits its list exactly once: drop removed jobs, re-home
// migrated ones (collected during the walk, applied after — the lastEpoch
// guard keeps a re-homed job from being visited twice in one epoch),
// decide whether to re-sample, and rebuild its published aggregates.
// Pass 2 squishes only this epoch's sampled jobs into the shard's
// demand-proportional slice of machine capacity, minus what the shard's
// un-sampled jobs already hold — so an idle shard's tick does no squish
// work at all. With one shard the slice is the whole capacity and the
// tick is the paper's sweep.
func (c *Controller) tick(s *shard, now sim.Time) {
	if s.id == 0 {
		c.prologue(now)
	}
	s.stat.Ticks++

	squishable := c.squishable[:0]
	desires := c.desireBuf[:0]
	weights := c.weightBuf[:0]
	preAlloc := c.preAllocBuf[:0]
	moves := c.moves[:0]
	allAdaptive := c.adaptiveBuf[:0]

	var desireRaw, govDesire, govGranted, allocAdaptive int
	var sampledTick, skippedTick int
	maxPPT := c.cfg.MaxProportion
	dt := c.cfg.Interval.Seconds()

	keep := s.list[:0]
	for _, j := range s.list {
		if j.removed {
			// The job leaves its last list here, so only now may it be
			// pooled: another shard's prologue cannot reissue it while this
			// list still holds it.
			if c.recycle {
				c.retired = append(c.retired, j)
			}
			continue
		}
		if c.ncpu > 1 {
			c.rehome(j, c.homeOf(j))
		}
		if j.shard != s.id {
			moves = append(moves, j)
			s.stat.Handoffs++
		} else {
			keep = append(keep, j)
		}
		if j.lastEpoch == c.epoch {
			// Already visited this epoch: the job was re-homed here by a
			// shard that ticked earlier. Its sample and its aggregate
			// contribution happened there; counting it again would
			// double-sample the job and double-count its demand.
			continue
		}
		j.lastEpoch = c.epoch

		if c.shouldSample(j, now) {
			epochs := c.epoch - j.sampleEpoch
			if !j.sampled || epochs < 1 {
				epochs = 1
			}
			if c.cfg.EventDriven {
				j.watched = c.watchedOf(j)
			}
			inSquish := c.sampleJob(j, now, dt*float64(epochs), epochs)
			j.sampled = true
			j.sampleEpoch = c.epoch
			j.dirty = false
			sampledTick++
			if inSquish {
				squishable = append(squishable, j)
				desires = append(desires, j.desired)
				weights = append(weights, j.importance)
				preAlloc = append(preAlloc, j.allocated)
			}
		} else {
			skippedTick++
		}

		// A job's desire is clamped to the most it could ever be granted
		// before it reaches the governor: a squished real-rate job's raw
		// desire integrates toward DesireCap by design (that is how it wins
		// the squish), so the un-clamped sum would read as brownout on any
		// machine running one busy pipeline.
		govDesire += min(j.desired, maxPPT)
		govGranted += j.allocated
		if j.class.Adaptive() {
			desireRaw += j.desired
			allocAdaptive += j.allocated
			if c.cfg.EventDriven {
				allAdaptive = append(allAdaptive, j)
			}
		}
	}
	clear(s.list[len(keep):])
	s.list = keep
	for _, j := range moves {
		c.shards[j.shard].list = append(c.shards[j.shard].list, j)
	}

	// Publish this shard's aggregates before computing the capacity slice
	// so the split sees this epoch's demand.
	s.desireRaw, s.govDesire, s.govGranted, s.allocAdaptive = desireRaw, govDesire, govGranted, allocAdaptive

	// Pass 2 over the sampled set. The shard's capacity slice is its share
	// of adaptive demand: with no floors binding, the global squish scales
	// every desire by capacity/demand, so demand-proportional slices
	// reproduce the global allocation in steady state. The capacity can
	// go negative when missed deadlines shrink the effective threshold
	// below what is already admitted; adaptive jobs then get nothing.
	capacity := max(c.effectiveThreshold-c.admitted, 0)
	var dTotal int
	for _, o := range c.shards {
		dTotal += o.desireRaw
	}
	var slice int
	if dTotal <= 0 {
		slice = capacity / len(c.shards)
	} else {
		slice = int(int64(capacity) * int64(desireRaw) / int64(dTotal))
	}
	if c.cfg.EventDriven && allocAdaptive > slice {
		// Over-commit recovery: the shard's jobs hold more than its slice
		// (early epochs, before every shard has published demand; or a
		// demand collapse elsewhere). Waiting for staleness to re-sample
		// the holders would leave the machine over-committed for up to the
		// staleness bound, so the whole shard is squished now with
		// retained desires. The included un-sampled jobs get their usage
		// marks advanced a little early; their next sample's smoothed
		// usage absorbs it.
		squishable = append(squishable[:0], allAdaptive...)
		desires, weights, preAlloc = desires[:0], weights[:0], preAlloc[:0]
		for _, j := range allAdaptive {
			desires = append(desires, j.desired)
			weights = append(weights, j.importance)
			preAlloc = append(preAlloc, j.allocated)
		}
	}
	held := 0
	for _, a := range preAlloc {
		held += a
	}
	c.squishApply(squishable, desires, weights, slice-(allocAdaptive-held), now)
	for i, j := range squishable {
		delta := j.allocated - preAlloc[i]
		s.govGranted += delta
		s.allocAdaptive += delta
	}

	c.squishable, c.desireBuf, c.weightBuf, c.preAllocBuf, c.moves = squishable, desires, weights, preAlloc, moves[:0]
	c.adaptiveBuf = allAdaptive
	s.stat.LastSampled, s.stat.LastSkipped = sampledTick, skippedTick
	s.stat.Sampled += uint64(sampledTick)
	s.stat.Skipped += uint64(skippedTick)

	if s.id == len(c.shards)-1 {
		// Close the epoch. The governor's miss and demotion deltas come
		// from global counters banked once per epoch, so its per-interval
		// rates are identical under one shard or many.
		if c.gov != nil {
			var dsum, gsum int
			for _, o := range c.shards {
				dsum += o.govDesire
				gsum += o.govGranted
			}
			c.governorObserve(now, dsum, gsum)
		}
		if c.onStep != nil {
			c.onStep(now)
		}
	}
}

// Shards returns the number of control shards.
func (c *Controller) Shards() int { return len(c.shards) }

// ShardStats returns per-shard counters.
func (c *Controller) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.stat
		out[i].Shard = s.id
	}
	return out
}

// CPUTime sums the CPU consumed by every shard thread: the controller's
// overhead, which Figure 5 measures.
func (c *Controller) CPUTime() sim.Duration {
	var total sim.Duration
	for _, s := range c.shards {
		if s.thread != nil {
			total += s.thread.CPUTime()
		}
	}
	return total
}
