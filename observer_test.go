package realrate_test

import (
	"strings"
	"testing"
	"time"

	realrate "repro"
)

// countingObserver tallies every observer callback.
type countingObserver struct {
	realrate.NopObserver
	dispatches  int
	nilDispatch int
	actuations  int
	quality     int
	admissions  []realrate.AdmissionEvent
	lastAct     map[string]int
}

func (o *countingObserver) OnDispatch(now time.Duration, th *realrate.Thread, cpu int) {
	if th == nil {
		o.nilDispatch++ // the controller's own thread has no public handle
		return
	}
	o.dispatches++
}

func (o *countingObserver) OnActuation(now time.Duration, th *realrate.Thread, prop int, period time.Duration) {
	o.actuations++
	if th != nil {
		if o.lastAct == nil {
			o.lastAct = make(map[string]int)
		}
		o.lastAct[th.Name()] = prop
	}
}

func (o *countingObserver) OnQuality(ev realrate.QualityEvent)                    { o.quality++ }
func (o *countingObserver) OnMigration(time.Duration, *realrate.Thread, int, int) {}
func (o *countingObserver) OnExit(now time.Duration, th *realrate.Thread)         {}
func (o *countingObserver) OnAdmission(ev realrate.AdmissionEvent) {
	o.admissions = append(o.admissions, ev)
}

func TestObserverSeesDispatchActuationAdmission(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	obs := &countingObserver{}
	sys.Observe(obs)

	rt, err := sys.Spawn("rt", realrate.HogProgram(400_000), realrate.Reserve(200, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("greedy", realrate.HogProgram(1000), realrate.Reserve(900, 10*time.Millisecond)); err == nil {
		t.Fatal("oversubscription accepted")
	}
	misc, err := sys.Spawn("misc", realrate.HogProgram(400_000))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Second)

	if obs.dispatches == 0 {
		t.Error("no dispatches observed")
	}
	if obs.nilDispatch == 0 {
		t.Error("controller thread dispatches not surfaced (nil handle expected)")
	}
	if obs.actuations == 0 {
		t.Error("no actuations observed")
	}
	if got := obs.lastAct["misc"]; got != misc.Allocation() {
		t.Errorf("last observed actuation for misc = %d, Allocation() = %d", got, misc.Allocation())
	}
	if got := obs.lastAct["rt"]; got != 200 {
		t.Errorf("rt actuated at %d ppt, want its 200 ppt reservation", got)
	}

	if len(obs.admissions) != 2 {
		t.Fatalf("admission events = %d, want 2 (one accept, one reject)", len(obs.admissions))
	}
	acc, rej := obs.admissions[0], obs.admissions[1]
	if !acc.Accepted || acc.Thread != rt || acc.Requested != 200 || acc.Period != 10*time.Millisecond {
		t.Errorf("accept event wrong: %+v", acc)
	}
	if rej.Accepted || rej.Err == nil || rej.Requested != 900 {
		t.Errorf("reject event wrong: %+v", rej)
	}

	// Renegotiation is an admission decision too.
	if err := rt.Renegotiate(300); err != nil {
		t.Fatal(err)
	}
	if len(obs.admissions) != 3 || !obs.admissions[2].Accepted || obs.admissions[2].Requested != 300 {
		t.Errorf("renegotiate admission event missing: %+v", obs.admissions)
	}
}

func TestObserverQualityAndTracingCompose(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	obs := &countingObserver{}
	sys.Observe(obs)
	tr := sys.EnableTracing(100) // tracing and observers share the hub

	pipe := sys.NewQueue("pipe", 1<<20)
	pc := true
	producer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		pc = !pc
		if pc {
			return realrate.Compute(400_000)
		}
		return realrate.Produce(pipe, 20_000)
	})
	cc := true
	impossible := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		cc = !cc
		if cc {
			return realrate.Consume(pipe, 4096)
		}
		return realrate.Compute(400 * 4096) // needs 2x the whole CPU
	})
	if _, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("consumer", impossible, realrate.RealRate(0, realrate.ConsumerOf(pipe))); err != nil {
		t.Fatal(err)
	}
	userEvents := 0
	sys.OnQuality(func(ev realrate.QualityEvent) { userEvents++ })
	sys.Run(20 * time.Second)

	if obs.quality == 0 {
		t.Error("observer missed quality exceptions")
	}
	if userEvents != obs.quality {
		t.Errorf("OnQuality callback saw %d events, observer %d; both taps must fire", userEvents, obs.quality)
	}
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch,") {
		t.Error("trace recorder starved by observer hub")
	}
}

func TestMutexRegisteredWithSystem(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	m := sys.NewMutex("info_bus")
	if m.Name() != "info_bus" {
		t.Fatalf("mutex name = %q", m.Name())
	}
	names := sys.MutexNames()
	if len(names) != 1 || names[0] != "info_bus" {
		t.Fatalf("system mutex registry = %v, want [info_bus]", names)
	}
	// A second system's registry is independent.
	sys2 := realrate.NewSystem(realrate.Config{})
	if len(sys2.MutexNames()) != 0 {
		t.Fatal("mutex leaked across systems")
	}
}

// exitAfter computes for n steps, then exits.
type exitAfter struct{ n int }

func (p *exitAfter) Next(*realrate.Thread, time.Duration) realrate.Action {
	if p.n--; p.n < 0 {
		return realrate.Exit()
	}
	return realrate.Compute(100_000)
}

// programAtExit records, for each exit, whether Thread.Program still
// returned the thread's program inside OnExit.
type programAtExit struct {
	realrate.NopObserver
	want realrate.Program
	seen []bool
}

func (o *programAtExit) OnExit(_ time.Duration, th *realrate.Thread) {
	o.seen = append(o.seen, th.Program() == o.want)
}

// TestProgramReadableInOnExit pins the exit-hook order observers rely on
// to find a thread's state without an index of their own: Program is
// still the thread's program inside OnExit, and released after it.
func TestProgramReadableInOnExit(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	prog := &exitAfter{n: 3}
	obs := &programAtExit{want: prog}
	sys.Observe(obs)
	th, err := sys.Spawn("w", prog, realrate.Miscellaneous())
	if err != nil {
		t.Fatal(err)
	}
	if th.Program() != prog {
		t.Fatal("live thread does not report its program")
	}
	sys.Run(100 * time.Millisecond)
	if len(obs.seen) != 1 || !obs.seen[0] {
		t.Fatalf("OnExit saw the thread's program: %v, want [true]", obs.seen)
	}
	if th.Program() != nil {
		t.Fatal("exited thread still holds its program")
	}
}
