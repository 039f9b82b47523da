package realrate

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// decodeSpawnOptions turns fuzz bytes into one Spawn's option list. Every
// option constructor is reachable, with both valid and invalid arguments,
// so the fuzzer explores the full combinator lattice (conflicting classes,
// option-after-class errors, policy-specific options on the wrong policy).
func decodeSpawnOptions(data []byte, sys *System, q *Queue, lead *Thread) ([]SpawnOption, []byte) {
	var opts []SpawnOption
	n := 1 + int(data[0]%4) // 1..4 options per spawn
	data = data[1:]
	for i := 0; i < n && len(data) >= 2; i++ {
		arg := int(data[1])
		switch data[0] % 10 {
		case 0:
			opts = append(opts, Reserve(arg*8, time.Duration(1+arg%50)*time.Millisecond))
		case 1:
			opts = append(opts, Aperiodic(arg*8))
		case 2:
			opts = append(opts, RealRate(time.Duration(arg%40)*time.Millisecond, ConsumerOf(q)))
		case 3:
			opts = append(opts, RealRate(0)) // always an error: no sources
		case 4:
			opts = append(opts, Interactive())
		case 5:
			opts = append(opts, Miscellaneous())
		case 6:
			opts = append(opts, Unmanaged())
		case 7:
			opts = append(opts, InJob(lead))
		case 8:
			opts = append(opts, Importance(float64(arg)-8)) // negative and zero reachable
		case 9:
			if arg%2 == 0 {
				opts = append(opts, Tickets(int64(arg)-16))
			} else {
				opts = append(opts, Nice(arg%40-20))
			}
		}
		data = data[2:]
	}
	return opts, data
}

// TestExitUnregistersProgressUnderBaseline guards the baseline half of the
// exit path: with no controller running, the kernel exit hook alone must
// unlink a dead thread's progress registration — otherwise open-loop
// paced/real-rate arrivals under a baseline policy grow the registry
// without bound.
func TestExitUnregistersProgressUnderBaseline(t *testing.T) {
	sys := NewSystem(Config{Policy: Stride(10 * time.Millisecond)})
	pace := NewPace("w", 100, 50)
	th, err := sys.Spawn("w", ProgramFunc(func(th *Thread, now time.Duration) Action {
		return Exit()
	}), RealRate(30*time.Millisecond, pace))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.reg.HasMetrics(th.t) {
		t.Fatal("progress source not registered at spawn")
	}
	sys.Run(100 * time.Millisecond)
	if th.State() != "exited" {
		t.Fatalf("thread did not exit: %v", th.State())
	}
	if sys.reg.HasMetrics(th.t) {
		t.Fatal("exited thread leaked its progress registration (no controller to tear it down)")
	}
	if err := checkIdentity(sys, []*Thread{th}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSpawnOptions drives random option sets through System.Spawn on every
// policy and asserts the error-vs-retire consistency contract: a Spawn
// that returns an error must leave no trace — the kernel thread it may
// have created is fully retired (Kernel.Retire), never runs, keeps no
// progress registration, and carries no handle — while a successful
// Spawn yields a live, schedulable thread whose kernel thread names it.
// Every spawn ends with the identity oracle (checkIdentity).
func FuzzSpawnOptions(f *testing.F) {
	f.Add([]byte{2, 0, 50, 1, 10})             // reserve + aperiodic conflict
	f.Add([]byte{1, 2, 0, 3, 0, 7, 0})         // real-rate; no-source; injob
	f.Add([]byte{3, 8, 0, 9, 2, 9, 3})         // invalid importance + tickets + nice
	f.Add([]byte{1, 0, 120, 1, 0, 120, 0, 50}) // oversubscription
	f.Add([]byte{4, 6, 0, 8, 12, 5, 0, 2, 9})
	f.Add(refusingSpawnSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		runSpawnOptions(t, data)
	})
}

// refusingSpawnSeed spawns three threads reserving 880‰ each under RBS:
// admission control refuses the last two, and each refusal retires the
// kernel thread it created.
var refusingSpawnSeed = []byte{0, 0, 0, 110, 0, 0, 110, 0, 0, 110}

// TestSpawnOptionsChecksRefusedThreads pins that FuzzSpawnOptions inspects
// the kernel threads refused spawns retire. Retire recycles such a thread
// and swap-removes it from Kernel.Threads before Spawn returns, so a check
// that looks for it there runs on nothing.
func TestSpawnOptionsChecksRefusedThreads(t *testing.T) {
	if n := runSpawnOptions(t, refusingSpawnSeed); n < 1 {
		t.Fatalf("checked %d refused threads, want at least 1", n)
	}
}

// refusedThread is a kernel thread retired by a refused Spawn, as the exit
// hook saw it: after the system's own teardown, before a recycling kernel
// scrubs and pools the object.
type refusedThread struct {
	state   kernel.State
	handle  bool
	metrics bool
	ran     sim.Duration
}

// runSpawnOptions is FuzzSpawnOptions' body. It reports how many kernel
// threads retired by refused spawns it checked.
func runSpawnOptions(t *testing.T, data []byte) (checked int) {
	t.Helper()
	if len(data) < 3 {
		t.Skip()
	}
	policies := []func() Policy{
		func() Policy { return nil },
		func() Policy { return Stride(10 * time.Millisecond) },
		func() Policy { return Lottery(10*time.Millisecond, 99) },
		func() Policy { return Linux() },
		func() Policy { return RoundRobin(10 * time.Millisecond) },
	}
	sys := NewSystem(Config{Policy: policies[int(data[0])%len(policies)]()})
	data = data[1:]
	q := sys.NewQueue("q", 1<<16)
	lead, err := sys.Spawn("lead", HogProgram(100_000))
	if err != nil {
		t.Fatalf("lead spawn: %v", err)
	}

	var refused []refusedThread
	spawning := false
	sys.kern.SetExitHook(func(kt *kernel.Thread, now sim.Time) {
		sys.threadExited(kt, now)
		if spawning {
			refused = append(refused, refusedThread{kt.State(), kt.User != nil, sys.reg.HasMetrics(kt), kt.CPUTime()})
		}
	})
	handles := []*Thread{lead}
	for len(data) >= 3 {
		var opts []SpawnOption
		opts, data = decodeSpawnOptions(data, sys, q, lead)
		retires := sys.kern.Stats().Retires
		refused = refused[:0]
		spawning = true
		th, err := sys.Spawn("fuzzed", HogProgram(200_000), opts...)
		spawning = false
		if err != nil {
			if th != nil {
				t.Fatalf("Spawn returned both a handle and an error: %v", err)
			}
			// Error-vs-retire consistency: anything created on the way to
			// the error is exited, handle-free, unregistered, and never ran.
			if n := sys.kern.Stats().Retires - retires; uint64(len(refused)) != n {
				t.Fatalf("refused spawn retired %d threads, exit hook saw %d (opts error: %v)", n, len(refused), err)
			}
			for _, r := range refused {
				switch {
				case r.state != kernel.StateExited:
					t.Fatalf("rejected spawn left thread in state %v (opts error: %v)", r.state, err)
				case r.handle:
					t.Fatalf("rejected spawn left a handle in its kernel thread (opts error: %v)", err)
				case r.metrics:
					t.Fatalf("rejected spawn left progress metrics registered (opts error: %v)", err)
				case r.ran != 0:
					t.Fatalf("rejected thread ran for %v (opts error: %v)", time.Duration(r.ran), err)
				}
				checked++
			}
		} else {
			if th.State() == "exited" {
				t.Fatal("successful spawn returned an exited thread")
			}
			handles = append(handles, th)
		}
		if err := checkIdentity(sys, handles); err != nil {
			t.Fatal(err)
		}
	}

	// The machine must run with whatever mix was admitted, and no rejected
	// thread comes back: every live fuzzed kernel thread carries its handle.
	sys.Run(30 * time.Millisecond)
	for _, kt := range sys.kern.Threads() {
		if kt.Name() == "fuzzed" && kt.State() != kernel.StateExited && handleOf(kt) == nil {
			t.Fatalf("fuzzed kernel thread %v runs without a handle", kt)
		}
	}
	// Exit bookkeeping stays closed: live public handles only.
	if err := checkIdentity(sys, handles); err != nil {
		t.Fatal(err)
	}
	return checked
}
