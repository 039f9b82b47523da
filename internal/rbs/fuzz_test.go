package rbs_test

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// FuzzBoundaryWheel interprets fuzz bytes as an op script against a
// Verify-mode dispatcher: every Pick replays the legacy linear scan and
// panics on divergence, asserts that every due period of an eagerly
// rolled thread was rolled, and audits the ready keys, the wheel links
// and the lazy threads from scratch — so a boundary entry filed in the
// wrong wheel level, cascaded late from L2, or lost during a level hop
// fails the fuzz run. Period bytes are scaled so all three levels (L1
// buckets, the second 256-slot level, and the overflow heap) are hit. The
// first byte also picks the machine: the discipline, 1 or 4 CPUs (so work
// pulls steal from the keyed ready heap), and whether exited threads'
// objects and scheduling state are recycled (so later spawns reuse wheel
// node ids).
//
// Time advances may read MissedDeadlines, which under RMS settles the
// lazy threads' rolls. The script runs twice, with those reads and with
// none until the end: the two runs must agree on the final miss count
// and the kernel totals, and the reads must never fall.
//
//	go test -run '^$' -fuzz=FuzzBoundaryWheel ./internal/rbs
func FuzzBoundaryWheel(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x40, 0xFF, 0x03, 0x22})
	f.Add([]byte{0xF0, 0x0F, 0xAA, 0x55, 0x00, 0x99, 0x7F, 0xC3})
	f.Add([]byte{0x07, 0x06, 0x03, 0x0E, 0x00, 0x08, 0x50, 0x11, 0x30, 0x07, 0x40, 0x09, 0x9F})
	// Oversubscribed RMS on one CPU, then on CPU 0 of four with
	// recycling: reads land while lazy threads owe misses.
	f.Add([]byte{0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x06, 0x00, 0x08, 0xC7, 0x10, 0xC5, 0x18, 0xC3, 0x20, 0xC1, 0x28, 0xBF, 0x30, 0xBD, 0x38, 0xBB, 0x40, 0xB9, 0x87, 0x19, 0x87, 0x14, 0x87, 0x03, 0x0D, 0x00, 0x87, 0x16, 0x09, 0x00, 0x87, 0x0F})
	f.Add([]byte{0x06, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x01, 0x06, 0x00, 0x06, 0x00, 0x08, 0xC7, 0x10, 0xC5, 0x18, 0xC3, 0x20, 0xC1, 0x28, 0xBF, 0x30, 0xBD, 0x38, 0xBB, 0x40, 0xB9, 0x48, 0x96, 0x50, 0x78, 0x87, 0x19, 0x87, 0x14, 0x11, 0x00, 0x87, 0x03, 0x14, 0x20, 0x87, 0x16, 0x09, 0x00, 0x87, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		reads, st := runWheelScript(data, true)
		final, endSt := runWheelScript(data, false)
		if got, want := reads[len(reads)-1], final[0]; got != want {
			t.Fatalf("final miss count %d with mid-run reads, %d read only at the end", got, want)
		}
		if st != endSt {
			t.Fatalf("mid-run reads changed the kernel totals: %+v, read only at the end %+v", st, endSt)
		}
		for i := 1; i < len(reads); i++ {
			if reads[i] < reads[i-1] {
				t.Fatalf("miss ledger fell from %d to %d", reads[i-1], reads[i])
			}
		}
	})
}

// runWheelScript runs FuzzBoundaryWheel's op script and returns the
// MissedDeadlines reads — the scripted ones when reads is set, then one at
// the end — and the kernel totals.
func runWheelScript(data []byte, reads bool) ([]uint64, kernel.Stats) {
	eng := sim.NewEngine()
	p := rbs.New()
	if data[0]&1 == 1 {
		p.Discipline = rbs.EDF
	}
	p.Verify = true
	cfg := kernel.DefaultConfig()
	if data[0]&2 != 0 {
		cfg.CPUs = 4
	}
	k := kernel.New(eng, cfg, p)
	if data[0]&4 != 0 {
		k.SetRecycle(true)
		p.SetRecycle(true)
	}

	var threads []*kernel.Thread
	spawned := 0
	spawn := func(pin int) {
		name := fmt.Sprintf("t%d", spawned)
		spawned++
		if pin >= 0 {
			threads = append(threads, k.SpawnAffinity(name, hog(300_000), pin%cfg.NumCPUs()))
		} else {
			threads = append(threads, k.Spawn(name, hog(300_000)))
		}
	}
	// A resident unmanaged thread keeps the machine busy so dispatch
	// points (and wheel drains) keep firing; it never exits.
	spawn(-1)
	k.Start()

	var missed []uint64
	// Each op consumes two bytes: an opcode/target byte and an argument
	// byte.
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i], int64(data[i+1])
		j := int(op>>3) % len(threads)
		th := threads[j]
		switch op & 7 {
		case 0: // short period: L1
			p.SetReservation(th, rbs.Reservation{
				Proportion: int(arg % 200),
				Period:     sim.Duration(1+arg%250) * sim.Millisecond,
			})
		case 1: // exit; the slot (and, recycling, the state) is reissued
			if j > 0 {
				k.Retire(th)
				threads = append(threads[:j], threads[j+1:]...)
			}
		case 2, 3: // medium period: second wheel level
			p.SetReservation(th, rbs.Reservation{
				Proportion: int(arg % 200),
				Period:     (300 + sim.Duration(arg)*257) * sim.Millisecond,
			})
		case 4: // far period: overflow heap
			p.SetReservation(th, rbs.Reservation{
				Proportion: int(arg % 200),
				Period:     66*sim.Second + sim.Duration(arg)*sim.Second,
			})
		case 5:
			p.Unregister(th)
		case 6:
			if len(threads) < 24 {
				pin := -1
				if arg&1 == 1 {
					pin = int(arg >> 1)
				}
				spawn(pin)
			}
		default: // advance time, crossing L1 wraps and L2 spans
			eng.RunFor(sim.Duration(1+arg*arg) * sim.Millisecond)
			if reads && op&0x80 != 0 { // then read the miss ledger
				missed = append(missed, p.MissedDeadlines())
			}
		}
	}
	eng.RunFor(500 * sim.Millisecond)
	k.Stop()
	return append(missed, p.MissedDeadlines()), k.Stats()
}
