package rbs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

const missGolden = "../../testdata/goldens/rbs_missed.golden"

// stormMachine builds and starts a small Work-mode context-switch storm:
// n registered CPU-bound threads on cpus CPUs, with the storm scenario's
// five mixed periods and proportions filling ~90% of the machine, each
// exiting after work cycles (experiments.RunContextSwitchStorm's machine).
// At a few thousand threads the 1 ms minimum allocation oversubscribes
// the machine, so nearly every period boundary of a queued thread is a
// missed deadline.
func stormMachine(n, cpus int, work sim.Cycles) (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
	eng := sim.NewEngine()
	p := rbs.New()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = cpus
	k := kernel.New(eng, cfg, p)
	periods := [...]sim.Duration{10, 20, 30, 50, 100}
	prop := 900 * cpus / n
	if prop < 1 {
		prop = 1
	}
	for i := 0; i < n; i++ {
		remaining := work
		op := kernel.OpCompute{}
		th := k.Spawn("storm", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
			if remaining <= 0 {
				return kernel.OpExit{}
			}
			op.Cycles = min(remaining, 1_000_000)
			remaining -= op.Cycles
			return &op
		}))
		res := rbs.Reservation{Proportion: prop, Period: periods[i%len(periods)] * sim.Millisecond}
		if err := p.SetReservation(th, res); err != nil {
			panic(err)
		}
	}
	k.Start()
	return eng, k, p
}

// sliceMachine builds and starts one CPU running three registered hogs
// whose RMS reservations oversubscribe it: the 10 ms thread holds 90% and
// runs 9-tick slices with no Pick in between, while the 20 ms and 30 ms
// threads wait in the ready heap and miss boundaries that pass mid-slice.
func sliceMachine() (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
	eng, k, p := newMachine()
	for i, res := range []rbs.Reservation{
		{Proportion: 900, Period: 10 * sim.Millisecond},
		{Proportion: 500, Period: 20 * sim.Millisecond},
		{Proportion: 300, Period: 30 * sim.Millisecond},
	} {
		th := k.Spawn(fmt.Sprintf("h%d", i), hog(1_000_000))
		if err := p.SetReservation(th, res); err != nil {
			panic(err)
		}
	}
	k.Start()
	return eng, k, p
}

// missRig is one machine whose miss ledger the golden pins, read every
// interval of simulated time.
type missRig struct {
	name  string
	build func() (*sim.Engine, *kernel.Kernel, *rbs.Policy)
	span  sim.Duration
	every sim.Duration
}

func missRigs() []missRig {
	smp := func(disc rbs.Discipline) func() (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
		return func() (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
			eng, k, p, _ := smpMachine(disc)
			return eng, k, p
		}
	}
	return []missRig{
		{"smp-RMS", smp(rbs.RMS), smpSpan, 10 * sim.Millisecond},
		{"smp-EDF", smp(rbs.EDF), smpSpan, 10 * sim.Millisecond},
		{"storm-RMS", func() (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
			return stormMachine(2000, 4, 4_000_000)
		}, 8 * sim.Second, 10 * sim.Millisecond},
		// Reads between ticks, while the long slice runs without a Pick.
		{"slice-RMS", sliceMachine, 400 * 730 * sim.Microsecond, 730 * sim.Microsecond},
	}
}

// runMissRig runs rig for its span in steps of every, reading
// MissedDeadlines after each step (every = 0: once, at the end), and
// returns the reads and the kernel's totals.
func runMissRig(rig missRig, every sim.Duration) ([]uint64, kernel.Stats) {
	eng, k, p := rig.build()
	var reads []uint64
	if every == 0 {
		eng.RunFor(rig.span)
	} else {
		for ran := sim.Duration(0); ran < rig.span; ran += every {
			eng.RunFor(min(every, rig.span-ran))
			reads = append(reads, p.MissedDeadlines())
		}
	}
	k.Stop()
	return append(reads, p.MissedDeadlines()), k.Stats()
}

// TestMissLedgerGolden pins the miss ledger's whole series, not only its
// final count: MissedDeadlines read every 10 ms of simulated time on the
// churning 4-CPU rig under RMS and EDF and on a 2k-thread Work-mode storm,
// and every 730 µs on a one-CPU machine whose top thread runs long slices,
// must match testdata/goldens/rbs_missed.golden byte for byte. The
// controller reads the counter once per epoch and moves the admission
// threshold with it, so every intermediate read must be exact. Regenerate
// with
//
//	go test -run TestMissLedgerGolden ./internal/rbs -update
func TestMissLedgerGolden(t *testing.T) {
	var sb strings.Builder
	for _, rig := range missRigs() {
		reads, st := runMissRig(rig, rig.every)
		final := reads[len(reads)-1]
		if final == 0 {
			t.Fatalf("%s: vacuous run: no missed deadlines", rig.name)
		}
		fmt.Fprintf(&sb, "# %s reads=%d missed=%d dispatches=%d exits=%d\n",
			rig.name, len(reads)-1, final, st.Dispatches, st.Exits)
		for i, m := range reads[:len(reads)-1] {
			fmt.Fprintf(&sb, "%.3f %d\n", float64(sim.Duration(i+1)*rig.every)/float64(sim.Millisecond), m)
		}
	}
	checkGolden(t, missGolden, sb.String())
}

// TestMissLedgerReadCadence checks that reading the miss ledger does not
// steer the machine: reading MissedDeadlines after every tick, at an
// interval that lands mid-segment, or only at the end must give the same
// final count and the same kernel totals.
func TestMissLedgerReadCadence(t *testing.T) {
	for _, rig := range missRigs() {
		t.Run(rig.name, func(t *testing.T) {
			endReads, endStats := runMissRig(rig, 0)
			want := endReads[len(endReads)-1]
			for _, every := range []sim.Duration{kernel.DefaultConfig().TickInterval, 173 * sim.Microsecond} {
				reads, st := runMissRig(rig, every)
				if got := reads[len(reads)-1]; got != want {
					t.Errorf("reading every %v: final missed %d, read once at the end %d", every, got, want)
				}
				if st != endStats {
					t.Errorf("reading every %v: kernel stats %+v, read once at the end %+v", every, st, endStats)
				}
				for i := 1; i < len(reads); i++ {
					if reads[i] < reads[i-1] {
						t.Fatalf("reading every %v: ledger fell from %d to %d", every, reads[i-1], reads[i])
					}
				}
			}
		})
	}
}
