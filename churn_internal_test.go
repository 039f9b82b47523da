// Churn-recycling tests for the pooled spawn→exit life cycle: the free
// lists must be bounded by the peak live population (recycling, not
// leaking); a storm of Spawn/Kill/Renegotiate cycles — fixed or fuzzed —
// must behave exactly like the same storm with recycling off
// (byte-identical dispatch traces); retired handles must freeze their
// final statistics; and use-after-retire must fail deterministically — a
// named panic, not silent corruption of the slot's next occupant.
package realrate

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// disableRecycling turns free-list recycling off in every layer of a
// freshly built machine, before its first spawn: exited kernel slots,
// scheduler state and controller jobs are then left to the collector.
// It is the reference the pooled runs are compared against.
func disableRecycling(sys *System) {
	sys.kern.SetRecycle(false)
	if sys.rbs != nil {
		sys.rbs.SetRecycle(false)
	}
	if sys.ctl != nil {
		sys.ctl.SetRecycle(false)
	}
}

// churnProg returns a program that computes for a few steps and exits.
func churnProg(steps int) Program {
	n := 0
	return ProgramFunc(func(th *Thread, now time.Duration) Action {
		n++
		if n > steps {
			return Exit()
		}
		return Compute(150_000)
	})
}

// TestChurnPoolNonLeak drives hundreds of short-lived spawns through the
// pooled lifecycle and checks nothing accumulates with the total spawn
// count: the kernel free list and the handle index are both bounded by the
// peak number of simultaneously live threads, not by how many threads ever
// existed.
func TestChurnPoolNonLeak(t *testing.T) {
	sys := NewSystem(Config{})
	peak, spawned := 0, 0
	sample := func() {
		if n := len(sys.kern.Threads()); n > peak {
			peak = n
		}
	}
	step := 0
	sys.Every(10*time.Millisecond, func(now time.Duration) {
		step++
		sample()
		name := fmt.Sprintf("churn%d", step%5)
		var err error
		switch step % 3 {
		case 0:
			_, err = sys.Spawn(name, churnProg(3), Reserve(20, 10*time.Millisecond))
		case 1:
			_, err = sys.Spawn(name, churnProg(4), Miscellaneous())
		default:
			_, err = sys.Spawn(name, churnProg(2), Interactive())
		}
		if err == nil {
			spawned++
		}
	})
	sys.Run(5 * time.Second)
	sample()

	if spawned < 300 {
		t.Fatalf("storm only spawned %d threads", spawned)
	}
	if peak >= spawned/4 {
		t.Fatalf("peak live %d too close to total spawned %d for the bound to mean anything", peak, spawned)
	}
	if free := sys.kern.FreeThreads(); free > peak {
		t.Errorf("kernel free list holds %d threads, exceeds peak live %d: exits are leaking objects", free, peak)
	}
	if n := len(sys.byKern); n > peak {
		t.Errorf("byKern still indexes %d threads, exceeds peak live %d: retired handles are leaking", n, peak)
	}
}

// runChurnSchedule executes one fuzz-decoded churn schedule and returns
// the raw dispatch trace. Each byte drives one wave: thread class, name,
// lifetime, plus optional kill and renegotiate actions.
func runChurnSchedule(t *testing.T, data []byte, pooled bool) []byte {
	t.Helper()
	sys := NewSystem(Config{})
	if !pooled {
		disableRecycling(sys)
	}
	tr := sys.EnableTracing(0)
	var spawned []*Thread
	i := 0
	sys.Every(5*time.Millisecond, func(now time.Duration) {
		if i >= len(data) {
			return
		}
		b := data[i]
		i++
		name := fmt.Sprintf("c%d", b%5)
		steps := int(b%7) + 1
		var th *Thread
		var err error
		switch b % 4 {
		case 0:
			th, err = sys.Spawn(name, churnProg(steps), Reserve(int(b%30)+1, 10*time.Millisecond))
		case 1:
			th, err = sys.Spawn(name, churnProg(steps), Miscellaneous())
		case 2:
			th, err = sys.Spawn(name, churnProg(steps), Interactive())
		default:
			th, err = sys.Spawn(name, churnProg(steps), Unmanaged())
		}
		if err != nil {
			return // admission veto is part of the schedule, not a failure
		}
		spawned = append(spawned, th)
		if b&0x10 != 0 && len(spawned) > 1 {
			spawned[int(b)%len(spawned)].Kill()
		}
		if b&0x20 != 0 && b%4 == 0 && !th.Exited() {
			_ = th.Renegotiate(int(b%25) + 1)
		}
	})
	sys.Run(time.Duration(len(data)+8) * 5 * time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzChurnSchedules is the pooling differential fuzzer: any churn
// schedule — spawns across all classes, mid-life kills, renegotiations —
// must produce byte-identical dispatch traces with pools on and off, and
// must never panic in either mode.
func FuzzChurnSchedules(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x12, 0x23, 0x34})
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08})
	f.Add(bytes.Repeat([]byte{0x33, 0x9c}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		pooled := runChurnSchedule(t, data, true)
		unpooled := runChurnSchedule(t, data, false)
		if !bytes.Equal(pooled, unpooled) {
			t.Fatalf("pools-on/pools-off traces diverge for schedule %x", data)
		}
	})
}

// shortProg returns a program that computes for a few steps and exits
// voluntarily.
func shortProg(steps int) Program {
	n := 0
	return ProgramFunc(func(th *Thread, now time.Duration) Action {
		n++
		if n > steps {
			return Exit()
		}
		return Compute(200_000)
	})
}

// runChurnStorm drives a deterministic mixed-class churn scenario on sys:
// a long-lived pipeline plus periodic waves of short-lived reserved,
// miscellaneous, interactive, and unmanaged threads, some killed mid-life
// and some renegotiated. Returns the handles of every churned thread.
func runChurnStorm(tb testing.TB, sys *System, dur time.Duration) []*Thread {
	tb.Helper()
	// Long-lived pipeline: a reserved producer and a real-rate consumer
	// that outlive every churn wave, so recycling happens around — and
	// must not perturb — steady controlled threads.
	pipe := sys.NewQueue("pipe", 1<<20)
	pc := true
	producer := ProgramFunc(func(th *Thread, now time.Duration) Action {
		pc = !pc
		if pc {
			return Compute(400_000)
		}
		return Produce(pipe, 20_000)
	})
	cc := true
	consumer := ProgramFunc(func(th *Thread, now time.Duration) Action {
		cc = !cc
		if cc {
			return Consume(pipe, 4096)
		}
		return Compute(40 * 4096)
	})
	if _, err := sys.Spawn("producer", producer, Reserve(100, 10*time.Millisecond)); err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.Spawn("consumer", consumer, RealRate(0, ConsumerOf(pipe))); err != nil {
		tb.Fatal(err)
	}

	var churned []*Thread
	step := 0
	sys.Every(10*time.Millisecond, func(now time.Duration) {
		step++
		name := fmt.Sprintf("churn%d", step%7) // interned small name set
		var th *Thread
		var err error
		switch step % 4 {
		case 0:
			th, err = sys.Spawn(name, shortProg(4), Reserve(20, 10*time.Millisecond))
		case 1:
			th, err = sys.Spawn(name, shortProg(6), Miscellaneous())
		case 2:
			th, err = sys.Spawn(name, shortProg(3), Interactive())
		default:
			th, err = sys.Spawn(name, shortProg(5), Unmanaged())
		}
		if err != nil {
			return // admission veto under load is fine; keep churning
		}
		churned = append(churned, th)
		if step%3 == 0 {
			// Kill an earlier spawn mid-life (no-op if already exited).
			churned[len(churned)/2].Kill()
		}
		if step%4 == 0 && !th.Exited() {
			_ = th.Renegotiate(10) // shrink the fresh reservation
		}
	})
	sys.Run(dur)
	return churned
}

// TestChurnRecyclingStress runs the churn storm with pools on (the
// default) and checks the recycling survives: exited handles freeze
// coherent final statistics, live handles still actuate, and the
// spawn→exit cycle keeps reissuing slots without corrupting classes.
func TestChurnRecyclingStress(t *testing.T) {
	sys := NewSystem(Config{})
	churned := runChurnStorm(t, sys, 3*time.Second)

	if len(churned) < 200 {
		t.Fatalf("storm only spawned %d churn threads", len(churned))
	}
	exited := 0
	for _, th := range churned {
		if !th.Exited() {
			continue
		}
		exited++
		// Frozen accessors must stay readable and self-consistent long
		// after the kernel slot was reissued to later spawns.
		if th.State() != "exited" {
			t.Fatalf("exited handle %q reports state %q", th.Name(), th.State())
		}
		if th.CPUTime() < 0 {
			t.Fatalf("exited handle %q reports negative CPU time", th.Name())
		}
		if c := th.Class(); c == "" {
			t.Fatalf("exited handle %q lost its class", th.Name())
		}
		th.Kill() // Kill on an exited handle must stay a no-op
	}
	if exited < len(churned)/2 {
		t.Fatalf("only %d/%d churn threads exited", exited, len(churned))
	}
}

// TestUseAfterRetirePanics pins the deterministic failure mode: mutating
// a retired thread panics with a message naming the retired generation,
// instead of silently reaching into a recycled slot.
func TestUseAfterRetirePanics(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic; want one mentioning %q", want)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}()
		fn()
	}

	t.Run("renegotiate", func(t *testing.T) {
		sys := NewSystem(Config{})
		th, err := sys.Spawn("victim", shortProg(2), Reserve(100, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second) // let it exit; churn more spawns through the slot
		for i := 0; i < 5; i++ {
			if _, err := sys.Spawn("squatter", shortProg(2), Reserve(50, 10*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			sys.Run(time.Second)
		}
		if !th.Exited() {
			t.Fatal("victim never exited")
		}
		mustPanic(t, "retired", func() { _ = th.Renegotiate(50) })
	})

	t.Run("set-importance", func(t *testing.T) {
		sys := NewSystem(Config{})
		th, err := sys.Spawn("victim", shortProg(2), Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		if !th.Exited() {
			t.Fatal("victim never exited")
		}
		mustPanic(t, "retired", func() { th.SetImportance(3) })
	})

	t.Run("kill-is-noop", func(t *testing.T) {
		sys := NewSystem(Config{})
		th, err := sys.Spawn("victim", shortProg(2), Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		th.Kill() // must not panic: killing an exited thread is declared a no-op
	})

	t.Run("spawn-into-exited-job", func(t *testing.T) {
		sys := NewSystem(Config{})
		th, err := sys.Spawn("primary", shortProg(2), Reserve(100, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		if _, err := sys.Spawn("late-member", shortProg(2), InJob(th)); err == nil {
			t.Fatal("spawning into an exited thread's job succeeded")
		}
	})
}

// churnTraceCSV runs the deterministic churn storm with tracing enabled
// and returns the raw dispatch-trace CSV.
func churnTraceCSV(tb testing.TB, pooled bool) []byte {
	tb.Helper()
	sys := NewSystem(Config{})
	if !pooled {
		disableRecycling(sys)
	}
	tr := sys.EnableTracing(0)
	runChurnStorm(tb, sys, 2*time.Second)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestChurnTraceIdenticalPoolsOnOff is the pooling ground truth: free-list
// recycling of kernel threads, scheduler state, and controller jobs must
// not move a single dispatch edge. The same churn storm runs with pools
// on and off — toggling only the layers' SetRecycle seams — and the raw scheduler
// traces must match byte for byte.
func TestChurnTraceIdenticalPoolsOnOff(t *testing.T) {
	pooled := churnTraceCSV(t, true)
	unpooled := churnTraceCSV(t, false)
	if !bytes.Equal(pooled, unpooled) {
		i := 0
		for i < len(pooled) && i < len(unpooled) && pooled[i] == unpooled[i] {
			i++
		}
		lo := i - 100
		if lo < 0 {
			lo = 0
		}
		hp, hu := i+100, i+100
		if hp > len(pooled) {
			hp = len(pooled)
		}
		if hu > len(unpooled) {
			hu = len(unpooled)
		}
		t.Fatalf("dispatch traces diverge at byte %d:\npooled:   …%s…\nunpooled: …%s…",
			i, pooled[lo:hp], unpooled[lo:hu])
	}
	if len(pooled) == 0 {
		t.Fatal("empty trace: the storm never dispatched")
	}
}

// exitHeapProbe reads the live heap, after a full collection, at two
// chosen exit counts.
type exitHeapProbe struct {
	NopObserver
	exits int
	at    [2]int
	live  [2]uint64
}

// OnExit implements Observer.
func (p *exitHeapProbe) OnExit(time.Duration, *Thread) {
	p.exits++
	for i, n := range p.at {
		if p.exits == n {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.live[i] = ms.HeapAlloc
		}
	}
}

// sessionStormHeap drives an open-loop session storm through a System —
// every 2 ms a session arrives as a paced real-rate primary plus one job
// member, both computing briefly and exiting — and returns the live heap
// at the n-th and the 3n-th exit.
func sessionStormHeap(t *testing.T, pooled bool, n int) (atN, at3N uint64) {
	t.Helper()
	sys := NewSystem(Config{})
	if !pooled {
		disableRecycling(sys)
	}
	probe := &exitHeapProbe{at: [2]int{n, 3 * n}}
	sys.Observe(probe)
	names := [...]string{"s0", "s1", "s2", "s3"}
	k := 0
	sys.Every(2*time.Millisecond, func(time.Duration) {
		k++
		name := names[k%len(names)]
		lead, err := sys.Spawn(name, churnProg(2), RealRate(0, NewPace(name, 1000, 100)))
		if err != nil {
			t.Fatalf("session %d: %v", k, err)
		}
		if _, err := sys.Spawn(name, churnProg(1), InJob(lead)); err != nil {
			t.Fatalf("session %d member: %v", k, err)
		}
	})
	for probe.exits < 3*n {
		if sys.Now() > time.Minute {
			t.Fatalf("only %d of %d exits after a simulated minute", probe.exits, 3*n)
		}
		sys.Run(100 * time.Millisecond)
	}
	return probe.live[0], probe.live[1]
}

// heapSlackPerExit is the live-heap growth allowed per exit between the
// two readings: far below one leaked kernel thread, so a lifecycle that
// retains any object per exit fails, while collector noise passes.
const heapSlackPerExit = 64

// heapFlat reports whether the live heap at the 3n-th exit stayed within
// the per-exit slack of the reading at the n-th exit.
func heapFlat(atN, at3N uint64, n int) bool {
	return at3N <= atN+uint64(2*n*heapSlackPerExit)
}

// TestChurnLiveHeapBounded pins bounded memory under churn: with the free
// lists on (the default), tripling the number of exited threads must not
// grow the live heap. Deliberately not parallel: the readings are
// process-wide.
func TestChurnLiveHeapBounded(t *testing.T) {
	const n = 2000
	atN, at3N := sessionStormHeap(t, true, n)
	if !heapFlat(atN, at3N, n) {
		t.Fatalf("live heap grew from %d B at exit %d to %d B at exit %d: exits are retaining memory",
			atN, n, at3N, 3*n)
	}
}

// TestChurnLiveHeapGrowsWithoutRecycling is the negative of
// TestChurnLiveHeapBounded: the same storm with recycling off keeps every
// exited kernel thread reachable, and the check must catch it.
func TestChurnLiveHeapGrowsWithoutRecycling(t *testing.T) {
	const n = 2000
	atN, at3N := sessionStormHeap(t, false, n)
	if heapFlat(atN, at3N, n) {
		t.Fatalf("live heap stayed flat (%d B at exit %d, %d B at exit %d) with recycling off: the check cannot see a leak",
			atN, n, at3N, 3*n)
	}
}
