package rbs_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/goldens/rbs_smp.golden and rbs_missed.golden")

const smpGolden = "../../testdata/goldens/rbs_smp.golden"

// smpMachine builds and starts a churning 4-CPU machine under one
// discipline, with a recorder attached. A few hundred threads with mixed,
// non-harmonic periods arrive over time, compute, sleep and exit; some are
// pinned, some are unregistered, and a timer renegotiates live
// reservations. Recycling is on in both the kernel and the policy, so
// exited threads' objects and scheduling state are reissued to later
// arrivals.
func smpMachine(disc rbs.Discipline) (*sim.Engine, *kernel.Kernel, *rbs.Policy, *trace.Recorder) {
	const (
		initial = 60
		total   = 260
		cpus    = 4
	)
	rng := sim.NewRNG(0x5eed5 + uint64(disc))
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = cpus
	p := rbs.New()
	p.Discipline = disc
	p.SetRecycle(true)
	k := kernel.New(eng, cfg, p)
	k.SetRecycle(true)
	rec := trace.NewRecorder()
	rec.MultiCPU = true
	k.SetTracer(rec)

	periods := []sim.Duration{3, 5, 7, 10, 20, 30, 40, 100}
	var live []*kernel.Thread
	k.SetExitHook(func(t *kernel.Thread, now sim.Time) {
		for i, x := range live {
			if x == t {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
	})
	reserve := func(t *kernel.Thread) {
		res := rbs.Reservation{
			Proportion: 5 + rng.Intn(60),
			Period:     periods[rng.Intn(len(periods))] * sim.Millisecond,
		}
		if err := p.SetReservation(t, res); err != nil {
			panic(err)
		}
	}
	spawned := 0
	spawn := func() {
		ops := 4 + rng.Intn(40)
		prog := kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
			ops--
			switch {
			case ops < 0:
				return kernel.OpExit{}
			case rng.Intn(2) == 0:
				return kernel.OpSleep{D: sim.Duration(2+rng.Intn(40)) * sim.Millisecond}
			default:
				return kernel.OpCompute{Cycles: sim.Cycles(20_000 + rng.Intn(500_000))}
			}
		})
		name := fmt.Sprintf("t%d", spawned)
		var t *kernel.Thread
		if spawned%10 == 9 {
			t = k.SpawnAffinity(name, prog, spawned%cpus)
		} else {
			t = k.Spawn(name, prog)
		}
		spawned++
		live = append(live, t)
		if rng.Intn(5) > 0 {
			reserve(t)
		}
	}
	for spawned < initial {
		spawn()
	}
	k.Start()
	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		spawn()
		if spawned < total {
			k.AddTimer(now.Add(sim.Duration(1+rng.Intn(3))*sim.Millisecond), arrive)
		}
	}
	k.AddTimer(eng.Now().Add(sim.Millisecond), arrive)
	var renegotiate func(now sim.Time)
	renegotiate = func(now sim.Time) {
		if len(live) > 0 {
			t := live[rng.Intn(len(live))]
			if rng.Intn(4) == 0 {
				p.Unregister(t)
			} else {
				reserve(t)
			}
		}
		k.AddTimer(now.Add(7*sim.Millisecond), renegotiate)
	}
	k.AddTimer(eng.Now().Add(7*sim.Millisecond), renegotiate)
	return eng, k, p, rec
}

// smpSpan is how long the churning rig runs.
const smpSpan = 500 * sim.Millisecond

// smpTrace runs the churning rig for smpSpan and returns its dispatch,
// deschedule and migration events as CSV lines, plus the kernel's totals.
func smpTrace(disc rbs.Discipline) (string, kernel.Stats) {
	eng, k, _, rec := smpMachine(disc)
	eng.RunFor(smpSpan)
	k.Stop()

	var sb strings.Builder
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.Dispatch, trace.Deschedule:
			fmt.Fprintf(&sb, "%.6f,%s,%s,%.1f,%d\n", ev.At.Seconds(), ev.Kind, ev.Thread,
				float64(ev.Ran)/float64(sim.Microsecond), ev.CPU)
		case trace.Migrate:
			fmt.Fprintf(&sb, "%.6f,%s,%s,,%d>%d\n", ev.At.Seconds(), ev.Kind, ev.Thread, ev.From, ev.CPU)
		}
	}
	return sb.String(), k.Stats()
}

// TestRBSSMPTraceGolden pins the dispatcher's multi-CPU schedule under
// both disciplines: the dispatch, deschedule and migration trace of a
// churning 4-CPU machine must match testdata/goldens/rbs_smp.golden byte
// for byte. Under EDF every period roll reorders the ready heap, and work
// pulls read the heap array in index order, so the trace also pins the
// heap's layout, not only its top. Regenerate with
//
//	go test -run TestRBSSMPTraceGolden ./internal/rbs -update
func TestRBSSMPTraceGolden(t *testing.T) {
	var sb strings.Builder
	for _, run := range []struct {
		name string
		disc rbs.Discipline
	}{{"RMS", rbs.RMS}, {"EDF", rbs.EDF}} {
		tr, st := smpTrace(run.disc)
		if st.Migrations == 0 || st.Exits == 0 {
			t.Fatalf("%s: vacuous run: %d migrations, %d exits", run.name, st.Migrations, st.Exits)
		}
		fmt.Fprintf(&sb, "# %s dispatches=%d migrations=%d exits=%d\n", run.name, st.Dispatches, st.Migrations, st.Exits)
		sb.WriteString(tr)
	}
	checkGolden(t, smpGolden, sb.String())
}

// checkGolden byte-compares got against the golden file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output diverged from %s: %d lines vs %d", path, len(gl), len(wl))
	}
}
