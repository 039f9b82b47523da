package rbs_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// BenchmarkPickDrain times the dispatcher layer alone: one op is one Pick
// on an 8-CPU machine holding ~3,000 queued registered threads per CPU,
// all on 10 ms periods with random phases — the shape of the slo-storm
// machines' per-CPU backlog. The clock advances 2 µs per Pick round-robin
// over the CPUs. The machine never starts, so nothing runs, charges or
// naps, and every thread stays in the ready heap. Under EDF each thread is
// filed in the boundary wheel, so each Pick rolls a few due boundaries out
// of a current-slot bucket of ~300 entries, re-keys them in the heap and
// reads the heap top. Under RMS the same threads are lazy and unfiled, so
// a Pick reads the heap top over an empty wheel. It must not allocate.
//
//	go test -run '^$' -bench BenchmarkPickDrain -benchmem ./internal/rbs
func BenchmarkPickDrain(b *testing.B) {
	for _, run := range []struct {
		name string
		disc rbs.Discipline
	}{{"disc=RMS", rbs.RMS}, {"disc=EDF", rbs.EDF}} {
		b.Run(run.name, func(b *testing.B) { benchPickDrain(b, run.disc) })
	}
}

func benchPickDrain(b *testing.B, disc rbs.Discipline) {
	const (
		cpus      = 8
		perCPU    = 3000
		period    = 10 * sim.Millisecond
		pickEvery = 2 * sim.Microsecond
	)
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = cpus
	p := rbs.New()
	p.Discipline = disc
	k := kernel.New(eng, cfg, p)
	rng := sim.NewRNG(42)
	threads := make([]*kernel.Thread, cpus*perCPU)
	phase := make([]sim.Duration, len(threads))
	for i := range threads {
		threads[i] = k.SpawnAffinity(fmt.Sprintf("t%d", i), hog(1_000_000), i%cpus)
		phase[i] = rng.Duration(period)
	}
	// Reserve in phase order, so each thread's period starts at its phase.
	order := make([]int, len(threads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool { return phase[order[a]] < phase[order[c]] })
	for _, i := range order {
		eng.RunUntil(sim.Time(phase[i]))
		if err := p.SetReservation(threads[i], rbs.Reservation{Proportion: 1, Period: period}); err != nil {
			b.Fatal(err)
		}
	}
	now := eng.Now()
	pick := func(i int) {
		now = now.Add(pickEvery)
		if p.Pick(i%cpus, now) == nil {
			b.Fatal("empty shard")
		}
	}
	// Warm up across two full periods so every filed entry has rolled and
	// the wheel is in steady state.
	for i := 0; i < int(2*period/pickEvery); i++ {
		pick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick(i)
	}
}
