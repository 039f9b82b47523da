package rbs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// auditMachine is a one-CPU Verify-mode machine running many queued
// registered threads with unaligned period phases. Under EDF the wheel
// files all of them, so the current slot and several buckets hold more
// than one entry; under RMS the ready ones are lazy and the wheel holds
// only the exhausted few.
func auditMachine(t *testing.T, disc rbs.Discipline) (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
	t.Helper()
	eng, k, p := newMachine()
	p.Discipline = disc
	p.Verify = true
	var threads []*kernel.Thread
	for i := 0; i < 32; i++ {
		threads = append(threads, k.Spawn(fmt.Sprintf("t%d", i), hog(150_000)))
	}
	k.Start()
	for i, th := range threads {
		eng.RunFor(137 * sim.Microsecond)
		res := rbs.Reservation{Proportion: 15 + i%10, Period: sim.Duration(2+i%8) * sim.Millisecond}
		if err := p.SetReservation(th, res); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(50 * sim.Millisecond)
	return eng, k, p
}

// pickAndAudit drains CPU 0's shard at the current instant through Pick
// (Verify on, so the audit runs there too) and audits it again directly.
func pickAndAudit(k *kernel.Kernel, p *rbs.Policy) {
	now := k.Now()
	p.Pick(0, now)
	rbs.VerifyShard(p, 0, now)
}

func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("audit did not fire; want a panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("audit panicked with %q, want %q", msg, want)
		}
	}()
	fn()
}

// TestVerifyAuditsFire pairs every from-scratch check of Verify's audit
// with a corruption of the cached quantity it guards: each check must
// pass on the intact shard and panic, with its own message, once that one
// quantity is wrong. The wheel checks run under EDF, where the wheel files
// every queued registered thread; the lazy-thread check runs under RMS.
func TestVerifyAuditsFire(t *testing.T) {
	rms, edf := rbs.RMS, rbs.EDF
	for _, tc := range []struct {
		name    string
		disc    rbs.Discipline
		corrupt func(*rbs.Policy, int) bool
		want    string
	}{
		{"ready-key", rms, rbs.CorruptReadyKey, "ready key of"},
		{"ready-key-edf", edf, rbs.CorruptReadyKey, "ready key of"},
		{"wheel-link", edf, rbs.CorruptWheelLink, "wheel link asymmetry"},
		{"node-key", edf, rbs.CorruptNodeKey, "wheel node key"},
		{"unfiled", edf, rbs.UnfileNode, "filed 0 times"},
		{"cur-min", edf, rbs.RaiseCurMin, "curMin"},
		{"lazy-filed", rms, rbs.FileLazy, "lazy"},
		{"over-budget", rms, rbs.InflateBudget, "above its period budget"},
		{"over-budget-edf", edf, rbs.InflateBudget, "above its period budget"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k, p := auditMachine(t, tc.disc)
			// Step until the shard holds what the corruption needs (the
			// current slot is often empty between boundaries).
			for step := 0; ; step++ {
				if step == 500 {
					t.Fatal("shard never offered the state to corrupt")
				}
				pickAndAudit(k, p) // the intact shard passes
				if tc.corrupt(p, 0) {
					break
				}
				eng.RunFor(89 * sim.Microsecond)
			}
			mustPanicWith(t, tc.want, func() { rbs.VerifyShard(p, 0, k.Now()) })
		})
	}
}

// TestSaturatedSequenceFallback runs a Verify-mode storm of equal-period
// threads across the point where enqueue sequence numbers saturate in the
// packed ready key. Past it, equal-period RMS entries (and unmanaged ones)
// carry identical keys, so every order decision falls back to the full
// sequence; Pick must still match the linear scan throughout.
func TestSaturatedSequenceFallback(t *testing.T) {
	for _, disc := range []rbs.Discipline{rbs.RMS, rbs.EDF} {
		eng, k, p := newMachine()
		p.Discipline = disc
		p.Verify = true
		const start = rbs.SeqMax - 200
		rbs.SetSeqGen(p, start)
		for i := 0; i < 24; i++ {
			th := k.Spawn(fmt.Sprintf("t%d", i), hog(150_000))
			if i%4 != 3 {
				if err := p.SetReservation(th, rbs.Reservation{Proportion: 30, Period: 10 * sim.Millisecond}); err != nil {
					t.Fatal(err)
				}
			}
		}
		k.Start()
		eng.RunFor(2 * sim.Second)
		k.Stop()
		if got := rbs.SeqGen(p); got < rbs.SeqMax+1000 {
			t.Fatalf("discipline %d: sequence reached only %d, want well past saturation at %d", disc, got, rbs.SeqMax)
		}
	}
}
