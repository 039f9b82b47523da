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
// over the CPUs, so each Pick rolls a few due boundaries out of a
// current-slot bucket of ~300 entries and reads the heap top. The machine
// never starts, so nothing runs, charges or naps: the cost is the boundary
// wheel drain plus the ready heap, and it must not allocate.
//
//	go test -run '^$' -bench BenchmarkPickDrain -benchmem ./internal/rbs
func BenchmarkPickDrain(b *testing.B) {
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
	// Warm up across two full periods so every entry has rolled and the
	// wheel is in steady state.
	for i := 0; i < int(2*period/pickEvery); i++ {
		pick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick(i)
	}
}
