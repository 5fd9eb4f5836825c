//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package memctrl

import "testing"

// TestSaturatedTickZeroAlloc is the allocation-regression gate of the
// indexed scheduler: once the free list, completion buffer, and
// per-requester stats are warm, a saturated enqueue+Tick steady state
// must not touch the heap at all — the property that keeps the dense
// benchmarks allocation-flat no matter how many cycles they simulate.
func TestSaturatedTickZeroAlloc(t *testing.T) {
	ctrl, fill := saturatedTickController(t)
	fill()
	for i := 0; i < 20_000; i++ {
		ctrl.Tick()
		fill()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		ctrl.Tick()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("saturated Tick steady state allocated %.2f times per cycle; want 0", allocs)
	}
}
