package gen_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload/gen"
)

// TestSLOFamilyNonVacuous pins the live-service family to its purpose:
// drawn scenarios actually admit and complete sessions (the attainment
// denominator is non-empty), the SLO report carries exactly one end-to-end
// sample per completed session, and across seeds the family's steady-state
// pressure — refusals or shed deaths — actually shows up. A family that
// never refuses would make every backpressure oracle vacuous.
func TestSLOFamilyNonVacuous(t *testing.T) {
	pressured := 0
	for seed := uint64(1); seed <= 5; seed++ {
		sp, err := gen.ForSeed("slo", seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Generate(sp).Run(gen.RunOpts{Policy: "rbs", Controller: "event"})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Report.Sessions
		if s.Started == 0 {
			t.Errorf("seed %d: no sessions started", seed)
		}
		if s.Completed == 0 {
			t.Errorf("seed %d: no sessions completed", seed)
		}
		if got, want := res.SLO.Session.Samples, uint64(s.Completed); got != want {
			t.Errorf("seed %d: %d SLO session samples, %d completed", seed, got, want)
		}
		pressured += s.Refused + s.Dead
	}
	if pressured == 0 {
		t.Error("no refusals or shed deaths across 5 slo scenarios: backpressure never exercised")
	}
}

// TestSLOInvariantsAcrossCPUCounts runs the full cross-policy invariant
// harness — session conservation, stage ordering, SLO-report closure, plus
// every scheduler oracle — over the slo family on multi-CPU machines under
// the sharded event-driven control plane, the configuration the scale runs
// use.
func TestSLOInvariantsAcrossCPUCounts(t *testing.T) {
	for _, cpus := range []int{1, 4, 8} {
		cpus := cpus
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 2; seed++ {
				violations, reports, err := gen.Check("slo", seed, gen.CheckOpts{
					CPUs: cpus, Controller: "event", Shards: 2,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, v := range violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				for _, r := range reports {
					if r.Samples == 0 {
						t.Errorf("seed %d policy %s: checker never sampled", seed, r.Policy)
					}
				}
			}
		})
	}
}

// TestSLOReportDeterminism is the satellite-1 pin: the SLO report — every
// percentile, every per-kind session series — and the session counters are
// byte-equal across two runs of the same scenario, on one CPU and on four
// under the sharded event plane. Per-series seeded reservoir RNG is what
// makes this hold; a shared RNG would let shard interleaving leak into the
// sampled percentiles.
func TestSLOReportDeterminism(t *testing.T) {
	for _, cpus := range []int{1, 4} {
		cpus := cpus
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			t.Parallel()
			run := func() *gen.RunResult {
				sp, err := gen.ForSeed("slo", 11)
				if err != nil {
					t.Fatal(err)
				}
				sp.CPUs = cpus
				res, err := gen.Generate(sp).Run(gen.RunOpts{
					Policy: "rbs", Controller: "event", Shards: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.SLO, b.SLO) {
				t.Errorf("SLO reports differ between identical runs:\n  first  %+v\n  second %+v", a.SLO, b.SLO)
			}
			if a.Report.Sessions != b.Report.Sessions {
				t.Errorf("session counters differ between identical runs:\n  first  %+v\n  second %+v",
					a.Report.Sessions, b.Report.Sessions)
			}
		})
	}
}

// TestSessionsLiveAtRunEndExcluded pins the session-level open-edge rule:
// a session still in flight when the simulation stops lands in the Live
// bucket and contributes nothing to attainment or the SLO report's session
// dimension — its end-to-end edge is open, neither met nor missed. Session
// work here is drawn so heavy that nothing can finish inside the run.
func TestSessionsLiveAtRunEndExcluded(t *testing.T) {
	sp := gen.Spec{
		Family:   "slo",
		Seed:     9,
		Duration: 150 * time.Millisecond,
		Taskset:  gen.TasksetSpec{Misc: 1},
		Sessions: gen.SessionSpec{
			Rate:          200,
			PhaseMean:     50 * time.Millisecond,
			Stages:        3,
			Bytes:         512,
			Chunk:         256,
			Work:          2_000_000_000, // seconds of compute per chunk: unfinishable
			Deadline:      60 * time.Millisecond,
			MaxImportance: 9,
		},
	}
	res, err := gen.Generate(sp).Run(gen.RunOpts{Policy: "rbs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Report.Violations {
		t.Error(v)
	}
	s := res.Report.Sessions
	if s.Started == 0 || s.Live == 0 {
		t.Fatalf("no sessions left in flight: %+v", s)
	}
	if s.Completed != 0 || s.Met != 0 {
		t.Fatalf("unfinishable sessions completed: %+v", s)
	}
	if s.Attainment != 0 || s.Goodput != 0 {
		t.Fatalf("open sessions moved attainment/goodput: %+v", s)
	}
	if res.SLO.Session.Samples != 0 {
		t.Fatalf("open sessions recorded %d end-to-end samples, want 0", res.SLO.Session.Samples)
	}
}

// TestSessionMaxLiveCap pins the accept-backlog bound: with a tiny MaxLive
// and a storm of arrivals, the live-session population never exceeds the
// cap, overflow arrivals land in Refused (conserved, nothing allocated),
// and the cap holds under a controller-less baseline — it is the front
// end's listen queue, not a governor feature.
func TestSessionMaxLiveCap(t *testing.T) {
	sp := gen.Spec{
		Family:   "slo",
		Seed:     5,
		Duration: 400 * time.Millisecond,
		Taskset:  gen.TasksetSpec{Misc: 1},
		Sessions: gen.SessionSpec{
			Rate:          1500,
			BurstRate:     3000,
			PhaseMean:     50 * time.Millisecond,
			Stages:        3,
			Bytes:         512,
			Chunk:         256,
			Work:          30_000,
			Deadline:      60 * time.Millisecond,
			BestEffort:    0.5,
			MaxImportance: 9,
			MaxLive:       8,
		},
	}
	for _, policy := range []string{"rbs", "round-robin"} {
		res, err := gen.Generate(sp).Run(gen.RunOpts{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Report.Violations {
			t.Errorf("%s: %s", policy, v)
		}
		s := res.Report.Sessions
		if s.PeakLive > sp.Sessions.MaxLive {
			t.Errorf("%s: peak live %d exceeds MaxLive %d", policy, s.PeakLive, sp.Sessions.MaxLive)
		}
		if s.Refused == 0 {
			t.Errorf("%s: storm at MaxLive=%d produced no refusals (started %d)",
				policy, sp.Sessions.MaxLive, s.Started)
		}
		if s.Started != s.Refused+s.Completed+s.Dead+s.Live {
			t.Errorf("%s: session conservation broken: %+v", policy, s)
		}
	}
}

// TestSLOCheckerOnOffSameLedger pins that the invariant checker only
// observes: the slo family's session runner is the same with the checker
// on or off, so a checked run and an unchecked one (the configuration the
// benchmark times) must produce the same session ledger, SLO report,
// control-loop counters, and health snapshot. The last case is the
// benchmark's slo-knee machine, run under the oracles.
func TestSLOCheckerOnOffSameLedger(t *testing.T) {
	setups := []struct {
		name       string
		cpus       int
		controller string
		shards     int
	}{
		{"cpus=1/periodic", 1, "periodic", 1},
		{"cpus=4/event/shards=2", 4, "event", 2},
		{"cpus=8/event", 8, "event", 1},
	}
	run := func(sp gen.Spec, controller string, shards int, noInvariants bool) *gen.RunResult {
		t.Helper()
		res, err := gen.Generate(sp).Run(gen.RunOpts{
			Policy: "rbs", Controller: controller, Shards: shards, NoInvariants: noInvariants,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, su := range setups {
		for seed := uint64(1); seed <= 6; seed++ {
			sp, err := gen.ForSeed("slo", seed)
			if err != nil {
				t.Fatal(err)
			}
			sp.CPUs = su.cpus
			on := run(sp, su.controller, su.shards, false)
			off := run(sp, su.controller, su.shards, true)
			if on.Report.Sessions != off.Report.Sessions {
				t.Errorf("%s seed %d: sessions differ:\n  checked   %+v\n  unchecked %+v",
					su.name, seed, on.Report.Sessions, off.Report.Sessions)
			}
			if !reflect.DeepEqual(on.SLO, off.SLO) {
				t.Errorf("%s seed %d: SLO reports differ:\n  checked   %+v\n  unchecked %+v",
					su.name, seed, on.SLO, off.SLO)
			}
			if !reflect.DeepEqual(on.CtlStats, off.CtlStats) {
				t.Errorf("%s seed %d: control-loop counters differ:\n  checked   %+v\n  unchecked %+v",
					su.name, seed, on.CtlStats, off.CtlStats)
			}
			if on.Health != off.Health {
				t.Errorf("%s seed %d: health differs:\n  checked   %+v\n  unchecked %+v",
					su.name, seed, on.Health, off.Health)
			}
		}
	}

	knee := experiments.SLOSpec(1001, 4000, 1.0, 2*time.Second, 8)
	on := run(knee, "event", 0, false)
	off := run(knee, "event", 0, true)
	for _, v := range on.Report.Violations {
		t.Errorf("slo-knee: %s", v)
	}
	if n := on.Report.TruncatedViolations; n > 0 {
		t.Errorf("slo-knee: %d more violations past the recording cap", n)
	}
	if on.Report.Sessions.Completed == 0 {
		t.Error("slo-knee: no sessions completed")
	}
	if on.Report.Sessions != off.Report.Sessions {
		t.Errorf("slo-knee: sessions differ:\n  checked   %+v\n  unchecked %+v",
			on.Report.Sessions, off.Report.Sessions)
	}
}
