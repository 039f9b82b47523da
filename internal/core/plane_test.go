package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// planeRig is one simulated machine with a controller over it, for the
// tests that inspect the shards' internals.
type planeRig struct {
	eng    *sim.Engine
	kern   *kernel.Kernel
	policy *rbs.Policy
	reg    *progress.Registry
	ctl    *Controller
}

// newPlaneRig builds a machine with the given CPU count and controller
// configuration. Jobs are added by the caller before start(). The scale
// tests shrink the modeled per-job cycle cost, since a literal Figure 5
// machine (2640 cycles/job at 400 MHz) cannot even touch 10⁵⁺ jobs inside
// one 10 ms interval.
func newPlaneRig(cpus int, cfg Config) *planeRig {
	eng := sim.NewEngine()
	policy := rbs.New()
	kcfg := kernel.DefaultConfig()
	kcfg.CPUs = cpus
	kern := kernel.New(eng, kcfg, policy)
	reg := progress.NewRegistry()
	ctl := New(kern, policy, reg, cfg)
	kern.SetExitHook(ctl.ThreadExited)
	return &planeRig{eng: eng, kern: kern, policy: policy, reg: reg, ctl: ctl}
}

func (r *planeRig) start() {
	r.ctl.Start()
	r.kern.Start()
}

// addMisc spawns n sleepy miscellaneous jobs.
func (r *planeRig) addMisc(n int) {
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	prog := kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("misc", prog))
	}
}

// addPipeline spawns a producer/consumer pair over one queue, registering
// the consumer as a real-rate job, and returns its job. rate paces the
// producer: bytes moved per 5 ms.
func (r *planeRig) addPipeline(name string, rate int64) *Job {
	q := r.kern.NewQueue(name, 1<<16)
	prodOps := [2]kernel.Op{
		&kernel.OpProduce{Queue: q, Bytes: rate},
		&kernel.OpSleep{D: 5 * sim.Millisecond},
	}
	var pi int
	prod := r.kern.Spawn(name+".prod", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		op := prodOps[pi%2]
		pi++
		return op
	}))
	r.policy.SetReservation(prod, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond})
	consOps := [2]kernel.Op{
		&kernel.OpConsume{Queue: q, Bytes: rate},
		&kernel.OpCompute{Cycles: 40000},
	}
	var ci int
	cons := r.kern.Spawn(name+".cons", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		op := consOps[ci%2]
		ci++
		return op
	}))
	r.reg.RegisterQueue(cons, q, progress.Consumer)
	return r.ctl.AddRealRate(cons, 0)
}

// sampledSkipped sums the shards' visit counters.
func (r *planeRig) sampledSkipped() (sampled, skipped uint64) {
	for _, st := range r.ctl.ShardStats() {
		sampled += st.Sampled
		skipped += st.Skipped
	}
	return sampled, skipped
}

// staleJob returns the name of a live, once-sampled job whose last sample
// is more than the staleness bound old, or "" when there is none.
func (r *planeRig) staleJob() (name string, gap int64) {
	c := r.ctl
	for _, sh := range c.shards {
		for _, j := range sh.list {
			if !j.sampled || j.removed {
				continue
			}
			if gap := c.epoch - j.sampleEpoch; gap > c.stalenessEpochs {
				return j.thread.Name(), gap
			}
		}
	}
	return "", 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestShardedPeriodicConvergesLikeSweep pins the capacity-split argument:
// with no floors binding, demand-proportional shard slices reproduce the
// single shard's steady-state allocations. Equal misc jobs must end up
// with near-equal shares under 1 shard and 4.
func TestShardedPeriodicConvergesLikeSweep(t *testing.T) {
	const n = 12
	one := newPlaneRig(1, Config{})
	one.addMisc(n)
	one.start()
	one.eng.RunFor(2 * sim.Second)

	sh := newPlaneRig(1, Config{Shards: 4})
	sh.addMisc(n)
	sh.start()
	sh.eng.RunFor(2 * sim.Second)

	oj, sj := one.ctl.Jobs(), sh.ctl.Jobs()
	if len(oj) != len(sj) {
		t.Fatalf("job counts differ: %d vs %d", len(oj), len(sj))
	}
	for i := range oj {
		d := abs(oj[i].Allocated() - sj[i].Allocated())
		if d > 30 {
			t.Errorf("job %d: 1 shard %d ppt, 4 shards %d ppt (Δ%d > 30)",
				i, oj[i].Allocated(), sj[i].Allocated(), d)
		}
	}
	var total int
	for _, j := range sj {
		total += j.Allocated()
	}
	if total > sh.ctl.EffectiveThreshold() {
		t.Fatalf("sharded allocations sum to %d ppt, above the %d threshold",
			total, sh.ctl.EffectiveThreshold())
	}
}

// TestShardedExactlyOnceSampling pins the visit protocol: over E epochs,
// every job is sampled exactly E times in periodic mode no matter how
// many shards carve up the list.
func TestShardedExactlyOnceSampling(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		r := newPlaneRig(1, Config{Shards: shards})
		const n = 10
		r.addMisc(n)
		r.start()
		r.eng.RunFor(sim.Second)
		epochs := r.ctl.epoch
		want := uint64(epochs) * n
		got, skipped := r.sampledSkipped()
		// The last epoch may be mid-flight (some shards not yet ticked), so
		// allow up to one epoch's worth of pending samples.
		if got > want || got < want-uint64(n) || skipped != 0 {
			t.Errorf("shards=%d: %d samples (%d skipped) over %d epochs of %d jobs, want (%d, %d] and none skipped",
				shards, got, skipped, epochs, n, want-uint64(n), want)
		}
	}
}

// TestShardOverheadAdmittedExactly pins the reservation split: whatever
// shard count is asked for, the shards together admit exactly the
// controller's reservation, and the count is clamped so that every shard
// holds at least 1 ppt of it.
func TestShardOverheadAdmittedExactly(t *testing.T) {
	res := DefaultConfig().Reservation.Proportion
	for _, tc := range []struct{ shards, want int }{
		{1, 1}, {8, 8}, {50, 50}, {51, 50}, {64, 50},
	} {
		r := newPlaneRig(1, Config{Shards: tc.shards})
		r.start()
		if got := r.ctl.admitted; got != res {
			t.Errorf("shards=%d: admitted overhead %d ppt, want %d", tc.shards, got, res)
		}
		if got := r.ctl.Shards(); got != tc.want {
			t.Errorf("shards=%d: %d shards, want %d", tc.shards, got, tc.want)
		}
		if got := r.policy.TotalProportion(); got != res {
			t.Errorf("shards=%d: shard threads reserve %d ppt, want %d", tc.shards, got, res)
		}
	}
}

// TestEventDrivenSkipsIdleJobs pins the point of event mode: misc jobs
// with no progress signal are re-sampled only on the staleness bound, so
// samples ≪ epochs·jobs and skips make up the difference.
func TestEventDrivenSkipsIdleJobs(t *testing.T) {
	r := newPlaneRig(1, Config{EventDriven: true, Shards: 2})
	const n = 40
	r.addMisc(n)
	r.start()
	r.eng.RunFor(2 * sim.Second)

	epochs := uint64(r.ctl.epoch)
	sampled, skipped := r.sampledSkipped()
	full := epochs * n
	if sampled+skipped < full-n || sampled+skipped > full {
		t.Fatalf("visits %d (sampled %d + skipped %d) over %d epochs, want ≈%d",
			sampled+skipped, sampled, skipped, epochs, full)
	}
	// Staleness default is 10 epochs: sampling should be ~1/10th of the
	// periodic rate (plus the initial full pass).
	maxSampled := full/uint64(r.ctl.stalenessEpochs) + 2*n
	if sampled > maxSampled {
		t.Errorf("event mode sampled %d of %d visits, want ≤ %d", sampled, full, maxSampled)
	}
	if skipped == 0 {
		t.Error("event mode skipped nothing")
	}
}

// TestEventDrivenStalenessBound pins the feedback guarantee: no job goes
// longer than the staleness bound without a sample, whatever its signal
// does.
func TestEventDrivenStalenessBound(t *testing.T) {
	r := newPlaneRig(1, Config{EventDriven: true, Shards: 3, MaxStaleness: 40 * sim.Millisecond})
	r.addMisc(20)
	r.addPipeline("p0", 64)
	r.start()

	r.ctl.OnStep(func(now sim.Time) {
		if name, gap := r.staleJob(); name != "" {
			t.Fatalf("t=%v: job %q un-sampled for %d epochs, bound %d",
				now, name, gap, r.ctl.stalenessEpochs)
		}
	})
	r.eng.RunFor(2 * sim.Second)
	if r.ctl.epoch < 100 {
		t.Fatalf("only %d epochs ran", r.ctl.epoch)
	}
}

// TestEventDrivenTracksSignal pins the push half: a real-rate consumer
// whose queue moves keeps getting sampled and converges to a sane
// allocation even in event mode.
func TestEventDrivenTracksSignal(t *testing.T) {
	r := newPlaneRig(1, Config{EventDriven: true, Shards: 2})
	j := r.addPipeline("p0", 256)
	r.addMisc(10)
	r.start()
	r.eng.RunFor(3 * sim.Second)
	if j.Allocated() <= 0 {
		t.Fatalf("real-rate job allocated %d ppt under event mode", j.Allocated())
	}
	if sampled, _ := r.sampledSkipped(); sampled == 0 {
		t.Fatal("no samples taken")
	}
}

// TestShardStaggering pins the phase schedule: shard s's first tick lands
// at Interval + s·Interval/S, so control work spreads across the interval
// instead of bursting.
func TestShardStaggering(t *testing.T) {
	r := newPlaneRig(1, Config{Shards: 4})
	r.addMisc(8)
	var ticks []sim.Time
	r.ctl.OnStep(func(now sim.Time) { ticks = append(ticks, now) })
	r.start()
	r.eng.RunFor(sim.Second)
	// Every shard ticks once immediately at start (as a single shard
	// does); from then on the last shard wakes at interval·(1 + 3/4) and
	// every interval after, so the epoch's end settles into the 100 Hz
	// cadence offset by the stagger.
	if len(ticks) < 10 {
		t.Fatalf("only %d epochs completed", len(ticks))
	}
	iv := r.ctl.Config().Interval
	want := sim.Time(0).Add(iv).Add(sim.Duration(int64(iv) * 3 / 4))
	if ticks[1] < want || ticks[1] > want.Add(iv/2) {
		t.Errorf("second epoch end at %v, want ≈%v", ticks[1], want)
	}
	for i := 2; i < 8; i++ {
		if d := ticks[i].Sub(ticks[i-1]); d < iv-iv/10 || d > iv+iv/10 {
			t.Errorf("epoch period %v between epochs %d and %d, want ≈%v", d, i-1, i, iv)
		}
	}
}

// TestPlaneJobChurn pins membership bookkeeping: jobs removed mid-run drop
// out of the shard lists and the aggregates self-correct.
func TestPlaneJobChurn(t *testing.T) {
	r := newPlaneRig(1, Config{Shards: 3, EventDriven: true})
	r.addMisc(9)
	r.start()
	r.eng.RunFor(500 * sim.Millisecond)
	jobs := r.ctl.Jobs()
	for i, j := range jobs {
		if i%2 == 0 {
			r.ctl.Remove(j)
		}
	}
	r.eng.RunFor(500 * sim.Millisecond)
	live := 0
	for _, sh := range r.ctl.shards {
		for _, j := range sh.list {
			if !j.removed {
				live++
			}
		}
	}
	if want := len(r.ctl.Jobs()); live != want {
		t.Fatalf("%d live jobs across shards, want %d", live, want)
	}
	counted := 0
	for _, sh := range r.ctl.shards {
		counted += sh.live
	}
	if want := len(r.ctl.Jobs()); counted != want {
		t.Fatalf("shard live counts sum to %d, want %d", counted, want)
	}
}

// TestRecycleWaitsForOwningShard pins the pooling caveat of the shard
// lists: a removed job stays in its shard's list until that shard's next
// tick, and shard 0's prologue runs before the other shards tick, so a
// removed job must not be reissued while any list still holds it. The
// jobs are removed between shard 0's tick and the last shard's, and the
// next admissions must not find them on the free list until their
// owning shard has dropped them.
func TestRecycleWaitsForOwningShard(t *testing.T) {
	r := newPlaneRig(1, Config{Shards: 4})
	r.ctl.SetRecycle(true)
	r.addMisc(16)
	r.start()
	r.eng.RunFor(100 * sim.Millisecond)
	c := r.ctl
	now := r.kern.Now()
	c.tick(c.shards[0], now)
	for _, j := range append([]*Job(nil), c.Jobs()...) {
		c.Remove(j)
	}
	c.tick(c.shards[0], now) // the next epoch's prologue flushes retired jobs
	r.addMisc(16)
	listed := map[*Job]bool{}
	for _, sh := range c.shards {
		for _, j := range sh.list {
			if listed[j] {
				t.Fatalf("job %q is listed twice", j.thread.Name())
			}
			listed[j] = true
		}
	}
	for _, sh := range c.shards[1:] {
		c.tick(sh, now)
	}
	live := 0
	for _, sh := range c.shards {
		live += len(sh.list)
	}
	if want := len(c.Jobs()); live != want {
		t.Fatalf("%d jobs across shards after the drops, want %d", live, want)
	}
}
