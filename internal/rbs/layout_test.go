package rbs

import (
	"testing"
	"unsafe"
)

// TestStateIsTwoCacheLines pins the scheduling state at 128 bytes on
// 64-bit hosts, so slab-carved states stay aligned to cache-line pairs
// and a period roll loads one pair (see the state type).
func TestStateIsTwoCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is sized for 64-bit hosts")
	}
	if got := unsafe.Sizeof(state{}); got != 128 {
		t.Fatalf("state is %d bytes, want 128", got)
	}
}
