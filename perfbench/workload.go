package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/workload/gen"
)

// A workload is one named input set: a fixed list of simulated machines
// derived from the seed.
type workload struct {
	name     string
	why      string
	machines func(seed uint64) []machine
}

var workloads = []workload{
	{
		name: "slo-storm",
		why: "100k sessions/s on 8 CPUs, rbs + event plane (BenchmarkSLOSessions/n=100000): " +
			"spawn-exit churn, refusals, rbs wheel and heap, GC",
		machines: func(seed uint64) []machine { return sloMachines(sloStorm, seed) },
	},
	{
		name: "slo-knee",
		why: "~400 sessions/s on 8 CPUs, rbs + event plane: governor idle, sessions complete, " +
			"feedback really allocates; light churn",
		machines: func(seed uint64) []machine { return sloMachines(sloKnee, seed) },
	},
	{
		name: "storm-drain",
		why: "10k rbs threads drain 4M cycles each on 4 CPUs, no controller (BenchmarkStormSMP/n=10000/cpus=4): " +
			"bypasses control plane and churn",
		machines: func(uint64) []machine { return []machine{stormMachine(0)} },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A machine is one simulated machine of a workload. build is the set-up:
// everything before simulated time starts. It installs the traced run's
// probe when pr is non-nil and returns the machine ready to run.
type machine struct {
	id     int
	replay string // the spec and options that rebuild this machine by hand
	build  func(pr *probe) (instance, error)
}

type instance struct {
	offered int // jobs offered; all count as missed if the machine fails
	run     func() (ledger, error)
}

// ledger is one machine's simulated-machine outcome. It repeats exactly
// for a given machine, traced or not, so runs compare it with ==.
type ledger struct {
	simTime time.Duration

	// slo machines (gen.SessionReport and the SLO snapshot).
	started, refused, completed, dead, live, met int
	sessP50, sessP99, wakeP99                    time.Duration
	sampled, skipped                             uint64
	actuationErrors, sheds, throttled            uint64

	// storm machine (kernel.Stats and rbs counters).
	threads, retired                        int
	dispatches, wakeups, migrations, missed uint64
	overhead, elapsed, drain                time.Duration
	cpus                                    int
}

// sloParams sizes one slo workload: every machine is
// experiments.SLOSpec(seed, sessions, 1.0, dur, cpus) under rbs and the
// event-driven control plane, as BenchmarkSLOSessions and rrexp -slo run it.
type sloParams struct {
	sessions int
	dur      time.Duration
	cpus     int
	machines int
}

var (
	sloStorm = sloParams{sessions: 100_000, dur: time.Second, cpus: 8, machines: 12}
	sloKnee  = sloParams{sessions: 4000, dur: 10 * time.Second, cpus: 8, machines: 160}
)

// machineSeed gives machine i of a run its own SLOSpec seed; runs with
// different seeds use disjoint machines.
func machineSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

func sloMachines(p sloParams, seed uint64) []machine {
	ms := make([]machine, p.machines)
	for i := range ms {
		ms[i] = sloMachine(p, i, machineSeed(seed, i))
	}
	return ms
}

func sloMachine(p sloParams, id int, seed uint64) machine {
	sp := experiments.SLOSpec(seed, p.sessions, 1.0, p.dur, p.cpus)
	return machine{
		id: id,
		replay: fmt.Sprintf("offered=%g/s gen.Generate(experiments.SLOSpec(%d, %d, 1.0, %v, %d)).Run(gen.RunOpts{Policy: \"rbs\", Controller: \"event\", NoInvariants: true})",
			float64(p.sessions)/p.dur.Seconds(), seed, p.sessions, p.dur, p.cpus),
		build: func(pr *probe) (instance, error) {
			end := pr.span("gen.Generate")
			sc := gen.Generate(sp)
			end()
			opts := gen.RunOpts{Policy: "rbs", Controller: "event", NoInvariants: true}
			if pr != nil {
				opts.Observer = &observer{p: pr}
			}
			return instance{offered: sc.Sessions(), run: func() (ledger, error) {
				end := pr.span("gen.Scenario.Run")
				res, err := sc.Run(opts)
				end()
				if err != nil {
					return ledger{}, err
				}
				s := res.Report.Sessions
				l := ledger{
					simTime: sp.Duration,
					started: s.Started, refused: s.Refused, completed: s.Completed,
					dead: s.Dead, live: s.Live, met: s.Met,
					sessP50: res.SLO.Session.P50, sessP99: res.SLO.Session.P99,
					wakeP99:         res.SLO.P99,
					actuationErrors: res.Health.ActuationErrors,
					sheds:           res.Health.Sheds,
					throttled:       res.Health.Throttled,
				}
				for _, st := range res.CtlStats {
					l.sampled += st.Sampled
					l.skipped += st.Skipped
				}
				return l, nil
			}}, nil
		},
	}
}

// The storm-drain machine is BenchmarkStormSMP/n=10000/cpus=4, composed
// here from the sim, kernel and rbs constructors exactly as
// experiments.RunContextSwitchStorm composes it, so the traced run can put
// a timing decorator between the kernel and rbs. checkStormReference holds
// the composition to the original.
const (
	stormThreads = 10_000
	stormCPUs    = 4
	stormWork    = sim.Cycles(4_000_000)
	stormCap     = 120 * sim.Second
	stormChunk   = 250 * sim.Millisecond
)

var stormPeriods = [...]sim.Duration{
	10 * sim.Millisecond,
	20 * sim.Millisecond,
	30 * sim.Millisecond,
	50 * sim.Millisecond,
	100 * sim.Millisecond,
}

func stormMachine(id int) machine {
	return machine{
		id: id,
		replay: fmt.Sprintf("experiments.RunContextSwitchStorm(experiments.StormConfig{Threads: %d, CPUs: %d, Work: %d})",
			stormThreads, stormCPUs, stormWork),
		build: func(pr *probe) (instance, error) {
			end := pr.span("storm.compose")
			defer end()
			eng := sim.NewEngine()
			pol := rbs.New()
			var kp kernel.Policy = pol
			if pr != nil {
				kp = &timedPolicy{Policy: pol, p: pr}
			}
			kcfg := kernel.DefaultConfig()
			kcfg.CPUs = stormCPUs
			k := kernel.New(eng, kcfg, kp)
			prop := min(max(900*stormCPUs/stormThreads, 1), 1000)
			exits := make([]sim.Time, 0, stormThreads) // in simulated-time order
			k.SetExitHook(func(_ *kernel.Thread, now sim.Time) { exits = append(exits, now) })
			for i := 0; i < stormThreads; i++ {
				th := k.Spawn("storm", finiteHog(stormWork))
				res := rbs.Reservation{Proportion: prop, Period: stormPeriods[i%len(stormPeriods)]}
				if err := pol.SetReservation(th, res); err != nil {
					return instance{}, fmt.Errorf("storm thread %d: %w", i, err)
				}
			}
			k.Start()
			return instance{offered: stormThreads, run: func() (ledger, error) {
				end := pr.span("sim.Engine.RunFor")
				for ran := sim.Duration(0); len(exits) < stormThreads && ran < stormCap; ran += stormChunk {
					eng.RunFor(stormChunk)
				}
				end()
				k.Stop()
				st := k.Stats()
				l := ledger{
					simTime: time.Duration(st.Elapsed),
					threads: stormThreads, retired: len(exits),
					dispatches: st.Dispatches, wakeups: st.Wakeups, migrations: st.Migrations,
					missed:   pol.MissedDeadlines(),
					overhead: time.Duration(st.Overhead), elapsed: time.Duration(st.Elapsed),
					cpus: st.CPUs,
				}
				if len(exits) > 0 {
					l.drain = time.Duration(exits[len(exits)-1])
				}
				return l, nil
			}}, nil
		},
	}
}

// finiteHog burns total cycles in 1M-cycle bursts, then exits: the
// program RunContextSwitchStorm gives every thread in Work mode.
func finiteHog(total sim.Cycles) kernel.Program {
	op := kernel.OpCompute{}
	remaining := total
	return kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		if remaining <= 0 {
			return kernel.OpExit{}
		}
		burst := min(sim.Cycles(1_000_000), remaining)
		remaining -= burst
		op.Cycles = burst
		return &op
	})
}

// checkStormReference runs experiments.RunContextSwitchStorm with the
// storm-drain spec and reports any difference from the composition's
// ledger.
func checkStormReference(l ledger) error {
	ref := experiments.RunContextSwitchStorm(experiments.StormConfig{
		Threads: stormThreads, CPUs: stormCPUs, Work: stormWork,
	})
	got := [...]uint64{l.dispatches, l.wakeups, l.migrations, l.missed, uint64(l.retired), uint64(l.drain)}
	want := [...]uint64{ref.Dispatches, ref.Wakeups, ref.Migrations, ref.Missed, uint64(ref.Completed), uint64(ref.SimElapsed)}
	if got != want {
		return fmt.Errorf("storm-drain composition (dispatches, wakeups, migrations, missed, completed, drain ns) = %v, RunContextSwitchStorm = %v", got, want)
	}
	return nil
}

// checkLedger holds one surviving machine's outputs to the conservation
// laws of its workload.
func checkLedger(l ledger) error {
	if l.threads > 0 {
		if l.retired != l.threads {
			return fmt.Errorf("storm-drain: %d of %d threads completed", l.retired, l.threads)
		}
		return nil
	}
	if sum := l.refused + l.completed + l.dead + l.live; l.started != sum {
		return fmt.Errorf("sessions not conserved: started %d != refused %d + completed %d + dead %d + live %d",
			l.started, l.refused, l.completed, l.dead, l.live)
	}
	return nil
}
