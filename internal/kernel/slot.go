package kernel

import "slices"

// SlotTable is a per-thread side table indexed by Thread.Slot: O(1),
// hash-free state for each thread of one kernel. The layer that writes an
// entry clears it when the thread leaves, so a recycled object's next
// occupant finds it zeroed. The table grows only to the slots written, so
// its length never exceeds Kernel.Slots.
type SlotTable[T any] []T

// At returns t's entry, or the zero value when t's slot was never written.
func (st SlotTable[T]) At(t *Thread) T {
	if i := int(t.slot); i < len(st) {
		return st[i]
	}
	var zero T
	return zero
}

// Set stores v as t's entry, growing the table to cover t's slot.
func (st *SlotTable[T]) Set(t *Thread, v T) {
	i := int(t.slot)
	if i >= len(*st) {
		*st = slices.Grow(*st, i+1-len(*st))[:i+1]
	}
	(*st)[i] = v
}
