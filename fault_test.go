package realrate_test

import (
	"math"
	"testing"
	"time"

	realrate "repro"
)

// valueSource is a ProgressSource returning a fixed value — including the
// hostile ones user code can produce.
type valueSource struct{ v float64 }

func (s valueSource) Pressure(now time.Duration) float64 { return s.v }
func (s valueSource) Describe() string                   { return "value" }

// wavySource is a well-behaved source whose pressure varies sample to
// sample inside the healthy band — flat only if something freezes it.
type wavySource struct{}

func (wavySource) Pressure(now time.Duration) float64 {
	return 0.1 + float64((now/time.Millisecond)%17)/200
}
func (wavySource) Describe() string { return "wavy" }

// TestCustomSourceSanitized is the table-driven hardening test for the
// custom-ProgressSource adapter: NaN and ±Inf never reach the controller
// (counted into Health instead), out-of-range finite values are clamped,
// and in-range values pass through without a rejection.
func TestCustomSourceSanitized(t *testing.T) {
	cases := []struct {
		name    string
		v       float64
		rejects bool
	}{
		{"nan", math.NaN(), true},
		{"+inf", math.Inf(1), true},
		{"-inf", math.Inf(-1), true},
		{"above range", 2.5, false},
		{"below range", -2.5, false},
		{"in range", 0.3, false},
		{"negative in range", -0.3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := realrate.NewSystem(realrate.Config{})
			th, err := sys.Spawn("stage", realrate.HogProgram(400_000),
				realrate.RealRate(10*time.Millisecond, valueSource{tc.v}))
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(300 * time.Millisecond)
			if p := th.Pressure(); math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("non-finite pressure %v escaped the adapter", p)
			}
			h := sys.Health()
			if tc.rejects && h.SignalsRejected == 0 {
				t.Fatalf("hostile source value %v never rejected: %+v", tc.v, h)
			}
			if !tc.rejects && h.SignalsRejected != 0 {
				t.Fatalf("finite source value %v rejected %d times", tc.v, h.SignalsRejected)
			}
			if d := th.Desired(); d < 0 {
				t.Fatalf("desire went negative: %d", d)
			}
		})
	}
}

// ladderObserver records the fault-tolerance event stream of one run.
type ladderObserver struct {
	realrate.NopObserver
	faults   []realrate.FaultEvent
	degrades []realrate.DegradeEvent
	recovers []realrate.RecoverEvent
}

func (o *ladderObserver) OnFault(ev realrate.FaultEvent)     { o.faults = append(o.faults, ev) }
func (o *ladderObserver) OnDegrade(ev realrate.DegradeEvent) { o.degrades = append(o.degrades, ev) }
func (o *ladderObserver) OnRecover(ev realrate.RecoverEvent) { o.recovers = append(o.recovers, ev) }

// TestFreezeFaultWalksLadderEndToEnd is the public-API round trip of the
// tentpole: a scheduled FreezeSignal fault flattens a healthy thread's
// progress signal mid-run, the watchdog demotes it down the ladder (events
// via Observer), the fault clears, and the thread climbs back — leaving a
// Health snapshot that says exactly that.
func TestFreezeFaultWalksLadderEndToEnd(t *testing.T) {
	const (
		faultAt  = 100 * time.Millisecond
		faultFor = 200 * time.Millisecond
	)
	sys := realrate.NewSystem(realrate.Config{
		Faults: &realrate.FaultPlan{Seed: 7, Specs: []realrate.FaultSpec{
			{Kind: realrate.FaultFreezeSignal, Target: "stage", At: faultAt, For: faultFor},
		}},
		Controller: realrate.ControllerTuning{WatchdogIntervals: 5, WatchdogRecovery: 3},
	})
	obs := &ladderObserver{}
	sys.Observe(obs)
	th, err := sys.Spawn("stage", realrate.HogProgram(400_000),
		realrate.RealRate(10*time.Millisecond, wavySource{}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(600 * time.Millisecond)

	if len(obs.faults) == 0 || obs.faults[0].Kind != "freeze-signal" {
		t.Fatalf("fault events = %+v, want a freeze-signal injection first", obs.faults)
	}
	if obs.faults[0].Thread == nil || obs.faults[0].Thread.Name() != "stage" {
		t.Fatalf("injection not resolved to the target thread: %+v", obs.faults[0])
	}
	if len(obs.degrades) == 0 {
		t.Fatal("frozen signal never demoted the thread")
	}
	if obs.degrades[0].Time < faultAt {
		t.Fatalf("demoted at %v, before the fault window opened at %v", obs.degrades[0].Time, faultAt)
	}
	if obs.degrades[0].From != "real-rate" || obs.degrades[0].To != "fallback" {
		t.Fatalf("first demotion %s -> %s, want real-rate -> fallback",
			obs.degrades[0].From, obs.degrades[0].To)
	}
	if len(obs.recovers) != len(obs.degrades) {
		t.Fatalf("%d recoveries for %d degradations: ladder moves must pair",
			len(obs.recovers), len(obs.degrades))
	}
	last := obs.recovers[len(obs.recovers)-1]
	if last.Time < faultAt+faultFor {
		t.Fatalf("final recovery at %v, before the fault cleared at %v", last.Time, faultAt+faultFor)
	}
	if got := th.Degraded(); got != "real-rate" {
		t.Fatalf("thread finished on rung %q, want real-rate", got)
	}
	h := sys.Health()
	if h.FaultsInjected == 0 {
		t.Fatalf("health recorded no injections: %+v", h)
	}
	if h.Degradations == 0 || h.Degradations != h.Recoveries || h.JobsDegraded != 0 {
		t.Fatalf("health ladder books do not close: %+v", h)
	}
}

// TestFaultPlanZeroWhenUnused pins the zero-cost contract's observable
// half: a run with Config.Faults nil reports an all-zero Health snapshot.
func TestFaultPlanZeroWhenUnused(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	if _, err := sys.Spawn("misc", realrate.HogProgram(400_000)); err != nil {
		t.Fatal(err)
	}
	sys.Run(300 * time.Millisecond)
	if h := sys.Health(); h != (realrate.Health{}) {
		t.Fatalf("healthy run reported non-zero health: %+v", h)
	}
}

// TestFaultTargetResolvesDeterministically pins which handle a fault aimed
// at a shared thread name reports: with two live threads named "w", every
// fresh system must resolve the injection to the same one.
func TestFaultTargetResolvesDeterministically(t *testing.T) {
	first := -1
	for run := 0; run < 20; run++ {
		sys := realrate.NewSystem(realrate.Config{
			Faults: &realrate.FaultPlan{Seed: 3, Specs: []realrate.FaultSpec{
				{Kind: realrate.FaultFreezeSignal, Target: "w", At: 50 * time.Millisecond, For: 50 * time.Millisecond},
			}},
		})
		obs := &ladderObserver{}
		sys.Observe(obs)
		var ws [2]*realrate.Thread
		for i := range ws {
			th, err := sys.Spawn("w", realrate.HogProgram(400_000),
				realrate.RealRate(10*time.Millisecond, wavySource{}))
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = th
		}
		sys.Run(150 * time.Millisecond)
		if len(obs.faults) == 0 || obs.faults[0].Kind != "freeze-signal" {
			t.Fatalf("run %d: fault events = %+v, want a freeze-signal injection first", run, obs.faults)
		}
		got := -1
		for i, th := range ws {
			if obs.faults[0].Thread == th {
				got = i
			}
		}
		if got < 0 {
			t.Fatalf("run %d: injection resolved to %v, neither live thread named w", run, obs.faults[0].Thread)
		}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d resolved the fault to thread %d, run 0 to thread %d", run, got, first)
		}
	}
}
