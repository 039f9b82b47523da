package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// epoch is the control epoch host_ms_per_epoch is priced against.
const epoch = 10 * time.Millisecond

// A sample is one run of one machine.
type sample struct {
	m       *machine
	offered int
	setup   time.Duration // host time of build
	host    time.Duration // host time from the start of simulated time to the end
	rssMB   float64       // the machine's peak resident set size
	ref     time.Duration // host time of the reference run just before the machine
	ledger  ledger
	probe   *probe // traced runs only
	failure string // panic or error, with its site; empty when the machine survived
}

func (s *sample) failed() bool { return s.failure != "" }

// runMachine builds and runs one machine. A panic or error anywhere in it
// is caught and recorded as the sample's failure; the caller carries on.
func runMachine(m *machine, pr *probe) (s sample) {
	s.m, s.probe = m, pr
	s.ref = reference()
	defer func() {
		if r := recover(); r != nil {
			s.failure = fmt.Sprintf("panic %q at %s", fmt.Sprint(r), panicSite())
		}
	}()
	if pr != nil {
		defer pr.spanUnder("machine", "")()
	}
	resetPeakRSS()
	t0 := time.Now()
	inst, err := m.build(pr)
	if err != nil {
		s.failure = "set-up error: " + err.Error()
		return s
	}
	s.offered = inst.offered
	t1 := time.Now()
	s.setup = t1.Sub(t0)
	l, err := inst.run()
	s.host = time.Since(t1)
	s.rssMB = peakRSSMB()
	if err != nil {
		s.failure = "run error: " + err.Error()
		return s
	}
	s.ledger = l
	return s
}

// panicSite names the function and line a recovered panic started in,
// followed by its two callers. It is called from the deferred recover, so
// the panicking frames are still on the stack.
func panicSite() string {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	var path []string
	inPanic := false
	for len(path) < 3 {
		f, more := frames.Next()
		if f.Function == "runtime.gopanic" {
			inPanic = true
		} else if inPanic && !strings.HasPrefix(f.Function, "runtime.") {
			if len(path) == 0 {
				path = append(path, fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line))
			} else {
				path = append(path, f.Function)
			}
		}
		if !more {
			break
		}
	}
	if len(path) == 0 {
		return "unknown site"
	}
	return strings.Join(path, " <- ")
}

// runPasses runs the machine set repeatedly, at least once, while another
// pass fits in the budget. Every pass after the first must reproduce the
// first pass's ledgers and failures exactly.
func runPasses(ms []machine, budget time.Duration, traced bool) (passes [][]sample, err error) {
	start := time.Now()
	for {
		t0 := time.Now()
		pass := make([]sample, len(ms))
		for i := range ms {
			var pr *probe
			if traced {
				pr = newProbe(ms[i].id)
			}
			pass[i] = runMachine(&ms[i], pr)
		}
		if len(passes) > 0 {
			if err := samePass(passes[0], pass); err != nil {
				return passes, fmt.Errorf("pass %d differs from pass 1: %w", len(passes)+1, err)
			}
		}
		passes = append(passes, pass)
		if time.Since(start)+time.Since(t0) > budget {
			return passes, nil
		}
	}
}

// samePass reports the first machine whose simulated outcome differs.
func samePass(a, b []sample) error {
	for i := range a {
		if a[i].failed() != b[i].failed() || a[i].ledger != b[i].ledger {
			return fmt.Errorf("machine %d: %s", a[i].m.id, a[i].m.replay)
		}
	}
	return nil
}

func flatten(passes [][]sample) []sample {
	var all []sample
	for _, p := range passes {
		all = append(all, p...)
	}
	return all
}
