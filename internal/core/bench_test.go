package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// stepRig builds a controller over n sleepy miscellaneous jobs on one CPU
// and warms it up so that per-interval state (scratch buffers, converged
// allocations) is in steady state before measurement.
func stepRig(n int, cfg Config) (*Controller, sim.Time) {
	r := newPlaneRig(1, cfg)
	r.addMisc(n)
	r.start()
	r.eng.RunFor(sim.Second)
	return r.ctl, r.kern.Now()
}

// runEpoch drives one full control epoch: every shard ticks once.
func runEpoch(c *Controller, now sim.Time) {
	for _, s := range c.shards {
		c.tick(s, now)
	}
}

// stepModes are the control-loop configurations the epoch tests and
// benchmarks cover: the paper's sweep (one periodic shard), and the
// sharded periodic and event-driven loops of a large machine.
var stepModes = []struct {
	name string
	cfg  Config
}{
	{"sweep", Config{}},
	{"periodic8", Config{Shards: 8}},
	{"event8", Config{EventDriven: true, Shards: 8}},
}

// TestControllerStepZeroAlloc asserts the acceptance criterion of the
// allocation-free actuation path: after warm-up, a control epoch over
// miscellaneous jobs performs zero heap allocations in every mode.
func TestControllerStepZeroAlloc(t *testing.T) {
	for _, m := range stepModes {
		for _, n := range []int{1, 10, 100, 1000} {
			ctl, now := stepRig(n, m.cfg)
			if avg := testing.AllocsPerRun(100, func() { runEpoch(ctl, now) }); avg != 0 {
				t.Fatalf("%s n=%d: a control epoch allocates %.1f allocs/op, want 0", m.name, n, avg)
			}
		}
	}
}

// TestControllerStepScalesPastFloorLimit pins the graceful floor
// degradation: with more adaptive jobs than the capacity has ppt for their
// floors, an epoch must squish to a scaled floor instead of panicking (the
// original behavior at >170 jobs was a squish panic).
func TestControllerStepScalesPastFloorLimit(t *testing.T) {
	ctl, now := stepRig(1000, Config{})
	runEpoch(ctl, now) // must not panic
	total := 0
	for _, j := range ctl.Jobs() {
		if a := j.Allocated(); a >= 0 {
			total += a
		}
	}
	if total > ctl.EffectiveThreshold() {
		t.Fatalf("allocations sum to %d ppt, above the %d threshold", total, ctl.EffectiveThreshold())
	}
}

// TestControllerStepNegativeCapacity pins the overload corner: missed
// deadlines shrink the effective threshold, and once it drops below the
// already-admitted hard reservations the squish capacity is negative. The
// epoch must hand adaptive jobs nothing instead of panicking.
func TestControllerStepNegativeCapacity(t *testing.T) {
	eng := sim.NewEngine()
	policy := rbs.New()
	kern := kernel.New(eng, kernel.DefaultConfig(), policy)
	reg := progress.NewRegistry()
	ctl := New(kern, policy, reg, Config{})
	kern.SetExitHook(ctl.ThreadExited)
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return &op })
	rt := kern.Spawn("rt", prog)
	misc := kern.Spawn("misc", prog)
	ctl.Start()
	if _, err := ctl.AddRealTime(rt, 800, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctl.AddMiscellaneous(misc)
	kern.Start()
	eng.RunFor(100 * sim.Millisecond)
	// Misses have driven the threshold below the admitted 800+50 ppt.
	ctl.effectiveThreshold = ctl.cfg.OverloadThreshold / 2
	runEpoch(ctl, kern.Now()) // must not panic
	if j, ok := ctl.JobOf(misc); !ok || j.Allocated() != 0 {
		t.Fatalf("adaptive job under negative capacity allocated %d ppt, want 0", mustJob(ctl, misc).Allocated())
	}
}

func mustJob(c *Controller, th *kernel.Thread) *Job {
	j, ok := c.JobOf(th)
	if !ok {
		panic("no job")
	}
	return j
}

// BenchmarkControllerStep measures one full control epoch (sample,
// estimate, squish, actuate across every shard) per mode and job count.
// The sweep is O(n) by design — it must look at every job — and every
// mode must be allocation-free after warm-up. The event-mode target: at
// n=100k an epoch stays under 2× the per-job cost of n=10k, because
// steady-state misc jobs ride the skip path and only 1/staleness of them
// are re-sampled per epoch.
func BenchmarkControllerStep(b *testing.B) {
	for _, m := range stepModes {
		for _, n := range []int{100, 10_000, 100_000} {
			b.Run(fmt.Sprintf("mode=%s/n=%d", m.name, n), func(b *testing.B) {
				ctl, now := stepRig(n, m.cfg)
				// A large sweep's modeled cost outlasts the warm-up, so
				// one epoch is run by hand to size the scratch buffers.
				runEpoch(ctl, now)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runEpoch(ctl, now)
				}
			})
		}
	}
}

// TestEventDrivenPerJobCostScales enforces the event-mode scaling target
// in the test suite (the benchmark records the numbers; this keeps the
// property from regressing silently): one event-mode epoch at n=100k must
// cost less than 2× the per-job cost at n=10k.
func TestEventDrivenPerJobCostScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{EventDriven: true, Shards: 8}
	small, smallNow := stepRig(10_000, cfg)
	big, bigNow := stepRig(100_000, cfg)
	// Minimum over several small batches, with the two sizes interleaved:
	// `go test ./...` runs packages concurrently, so any single timing
	// window can be inflated by neighbors. Alternating the batches exposes
	// both sizes to the same host noise, and the min is the undisturbed
	// cost.
	const batches, reps = 10, 3
	batch := func(c *Controller, now sim.Time) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			runEpoch(c, now)
		}
		return time.Since(start)
	}
	bestSmall, bestBig := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for b := 0; b < batches; b++ {
		bestSmall = min(bestSmall, batch(small, smallNow))
		bestBig = min(bestBig, batch(big, bigNow))
	}
	perSmall := float64(bestSmall) / reps / 10_000
	perBig := float64(bestBig) / reps / 100_000
	if perBig > 2*perSmall {
		t.Errorf("event-mode per-job epoch cost grew %.2fx from n=10k (%.1fns) to n=100k (%.1fns), want < 2x",
			perBig/perSmall, perSmall, perBig)
	}
}

// TestEventDrivenSampledJobsScale is the deterministic companion of
// TestEventDrivenPerJobCostScales: it counts the work of an event-mode
// epoch instead of timing it. Every epoch must sample in full exactly the
// jobs that are due — never sampled, or past the staleness bound (the rig
// holds no real-rate job, so nothing is dirty) — and skip the rest. Over
// one staleness window each quiet job is then sampled once, so the
// per-job work the shard programs charge for (full samples plus 1/8 per
// skip) is the same at n=10k and n=100k.
func TestEventDrivenSampledJobsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{EventDriven: true, Shards: 8}
	var perJob [2]float64
	for i, n := range []int{10_000, 100_000} {
		c, now := stepRig(n, cfg)
		var sampled, skipped int
		for e := int64(0); e < c.stalenessEpochs; e++ {
			due, jobs := 0, 0
			for _, s := range c.shards {
				for _, j := range s.list {
					if j.removed {
						continue
					}
					if j.class == RealRate {
						t.Fatalf("n=%d: rig holds real-rate job %s", n, j.thread.Name())
					}
					jobs++
					if !j.sampled || c.epoch+1-j.sampleEpoch >= c.stalenessEpochs {
						due++
					}
				}
			}
			if jobs != n {
				t.Fatalf("n=%d: shards list %d jobs", n, jobs)
			}
			runEpoch(c, now)
			var epochSampled, epochSkipped int
			for _, st := range c.ShardStats() {
				epochSampled += st.LastSampled
				epochSkipped += st.LastSkipped
			}
			if epochSampled != due || epochSampled+epochSkipped != n {
				t.Fatalf("n=%d epoch %d: sampled %d and skipped %d jobs, want %d due of %d",
					n, c.epoch, epochSampled, epochSkipped, due, n)
			}
			sampled += epochSampled
			skipped += epochSkipped
		}
		if sampled != n {
			t.Fatalf("n=%d: one staleness window sampled %d jobs, want each once", n, sampled)
		}
		perJob[i] = (float64(sampled) + float64(skipped)/8) / float64(n)
	}
	if perJob[1] > 2*perJob[0] {
		t.Errorf("event-mode per-job work grew %.2fx from n=10k to n=100k, want < 2x", perJob[1]/perJob[0])
	}
}

// TestSoak1MAdmission is the scale soak: admit one million miscellaneous
// jobs and run a handful of control epochs under the sharded event-driven
// loop. It exists to prove admission and the per-epoch machinery stay
// tractable at six figures of jobs — the wall time is logged for
// scripts/bench.sh history.
func TestSoak1MAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 1_000_000
	start := time.Now()
	// The modeled Figure 5 cost (2640 cycles/job) is honest about a
	// 400 MHz machine: it cannot visit a million jobs per 10 ms interval.
	// The soak measures the loop's host-side cost, so the modeled cycle
	// cost is collapsed to let epochs complete in simulated time.
	r := newPlaneRig(1, Config{BaseCost: 100, PerJobCost: 1, EventDriven: true, Shards: 8})
	op := kernel.OpSleep{D: sim.Duration(time.Hour)}
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("soak", prog))
	}
	admit := time.Since(start)
	r.start()
	r.eng.RunFor(60 * sim.Millisecond) // ~6 control epochs
	total := time.Since(start)

	if got := len(r.ctl.Jobs()); got != n {
		t.Fatalf("admitted %d jobs, want %d", got, n)
	}
	if r.ctl.epoch < 5 {
		t.Fatalf("only %d control epochs completed", r.ctl.epoch)
	}
	sampled, skipped := r.sampledSkipped()
	t.Logf("soak: %d jobs admitted in %v, %d epochs in %v total (sampled %d, skipped %d)",
		n, admit.Round(time.Millisecond), r.ctl.epoch, total.Round(time.Millisecond), sampled, skipped)
}
