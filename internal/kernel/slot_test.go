package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestSlotsDenseAndKeptAcrossRecycling: slots are handed out densely in
// carve order, a recycled object keeps its slot under a bumped
// generation, and the slot count stays at the peak of objects held at
// once however many threads churn through.
func TestSlotsDenseAndKeptAcrossRecycling(t *testing.T) {
	_, k := newRRMachine(10 * sim.Millisecond)
	k.SetRecycle(true)
	a := k.Spawn("a", sleeper(sim.Millisecond))
	b := k.Spawn("b", sleeper(sim.Millisecond))
	if a.Slot() != 0 || b.Slot() != 1 || k.Slots() != 2 {
		t.Fatalf("slots a=%d b=%d, count %d; want 0, 1, 2", a.Slot(), b.Slot(), k.Slots())
	}
	var tbl kernel.SlotTable[string]
	tbl.Set(b, "b")
	if len(tbl) != 2 || tbl.At(a) != "" || tbl.At(b) != "b" {
		t.Fatalf("table %q: want [\"\" \"b\"]", tbl)
	}
	for i := 0; i < 100; i++ {
		gen := a.Gen()
		k.Retire(a)
		c := k.Spawn("c", sleeper(sim.Millisecond))
		if c != a || c.Slot() != 0 || c.Gen() != gen+1 {
			t.Fatalf("churn %d: reissued slot %d gen %d, want object a at slot 0 gen %d", i, c.Slot(), c.Gen(), gen+1)
		}
	}
	if k.Slots() != 2 {
		t.Fatalf("slot count %d after churn, want the peak of 2", k.Slots())
	}
}
