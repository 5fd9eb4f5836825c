//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package cache

import "testing"

// TestRefusedMissZeroAlloc pins the retry path of a back-pressured miss:
// the controller refuses the read, the core retries next cycle, and no
// attempt may allocate an MSHR, a waiter list or a fill callback.
func TestRefusedMissZeroAlloc(t *testing.T) {
	mem := &fakeMem{rejectRd: true}
	c := newCache(t, mem)
	onDone := func() {}
	c.Read(0, 0x40, onDone) // grow the MSHR's waiter capacity once
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Read(0, 0x40, onDone) {
			t.Fatal("read accepted while the backend refuses")
		}
	})
	if allocs != 0 {
		t.Fatalf("refused miss allocated %.2f times per retry; want 0", allocs)
	}
}
