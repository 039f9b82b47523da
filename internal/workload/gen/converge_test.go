package gen

import (
	"fmt"
	"testing"
	"time"
)

// steadied strips a drawn spec of everything that makes end state depend
// on when the controller looked: arrivals, churn, faults, and the
// overload governor. What remains is a fixed taskset whose allocations
// must converge, so the end-of-run snapshot is a meaningful differential
// surface across control-plane configurations.
func steadied(family string, seed uint64, cpus int) (Spec, error) {
	sp, err := ForSeed(family, seed)
	if err != nil {
		return Spec{}, err
	}
	sp.Arrivals = ArrivalSpec{}
	sp.Churn = ChurnSpec{}
	sp.Faults = nil
	sp.Overload = false
	sp.Sessions = SessionSpec{}
	sp.CPUs = cpus
	sp.Duration = 3 * time.Second
	return sp, nil
}

// withinEnvelope reports whether two end allocations agree within the
// class-aware convergence envelope. The sharded plane splits capacity by
// demand proportion and the event plane samples on its own schedule, so
// exact ppt equality is not the contract — same-fixpoint convergence is.
// Real-rate jobs get the loosest bound: a pipeline's feedback loop has a
// family of valid fixpoints (any stage split that keeps the queues
// draining), and which one a run settles at depends on sampling order.
// The total-allocation check below is what keeps that slack honest.
func withinEnvelope(a, b EndState) bool {
	d := a.Smoothed - b.Smoothed
	if d < 0 {
		d = -d
	}
	abs, rel := 30, 0.30
	if a.Class == "real-rate" {
		abs, rel = 60, 0.60
	}
	if d <= abs {
		return true
	}
	m := a.Smoothed
	if b.Smoothed > m {
		m = b.Smoothed
	}
	return float64(d) <= rel*float64(m)
}

// TestConvergenceDifferentialOracle is the correctness argument for the
// sharded, staggered, event-driven control plane, run as a differential
// test: for steadied workloads from every generator family, the single
// periodic shard (the paper's sweep), 4 periodic shards, and 4
// event-driven shards must all converge to the same per-thread allocation
// fixpoint (within the envelope) and to near-identical totals.
func TestConvergenceDifferentialOracle(t *testing.T) {
	configs := []struct {
		name       string
		controller string
		shards     int
	}{
		{"sweep", "periodic", 1},
		{"sharded", "periodic", 4},
		{"event", "event", 4},
	}
	for _, family := range Families() {
		for _, cpus := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/cpus=%d", family, cpus), func(t *testing.T) {
				sp, err := steadied(family, 7, cpus)
				if err != nil {
					t.Fatalf("spec: %v", err)
				}
				results := make(map[string]*RunResult, len(configs))
				for _, c := range configs {
					res, err := Generate(sp).Run(RunOpts{Controller: c.controller, Shards: c.shards})
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					if n := len(res.Report.Violations); n != 0 {
						t.Fatalf("%s: %d invariant violations: %+v", c.name, n, res.Report.Violations[0])
					}
					results[c.name] = res
				}
				base := results["sweep"]
				for _, c := range configs[1:] {
					got := results[c.name]
					if len(got.Allocations) != len(base.Allocations) {
						t.Fatalf("%s: %d surviving threads, sweep has %d",
							c.name, len(got.Allocations), len(base.Allocations))
					}
					var baseTotal, gotTotal int
					for name, want := range base.Allocations {
						have, ok := got.Allocations[name]
						if !ok {
							t.Fatalf("%s: thread %q missing from result", c.name, name)
						}
						baseTotal += want.Smoothed
						gotTotal += have.Smoothed
						if !withinEnvelope(want, have) {
							t.Errorf("%s: %s thread %q converged to %d ppt, sweep to %d (outside envelope)",
								c.name, want.Class, name, have.Smoothed, want.Smoothed)
						}
					}
					// Totals must agree tightly even where individual jobs
					// sit at different points of an equal-desire tie.
					if d := baseTotal - gotTotal; d < -baseTotal/10-20 || d > baseTotal/10+20 {
						t.Errorf("%s: total allocation %d ppt, sweep %d", c.name, gotTotal, baseTotal)
					}
				}
			})
		}
	}
}
