//go:build !race

// The race detector instruments allocations, so the allocation gates
// only run in the regular test pass (CI runs both).

package cache

import (
	"runtime"
	"testing"

	"repro/internal/allocgate"
)

// TestRefusedMissZeroAlloc pins the retry path of a back-pressured miss:
// the controller refuses the read, the core retries next cycle, and no
// attempt may allocate an MSHR, a waiter list or a fill callback.
func TestRefusedMissZeroAlloc(t *testing.T) {
	mem := &fakeMem{rejectRd: true}
	c := newCache(t, mem)
	onDone := func() {}
	retry := func() {
		if c.Read(0, 0x40, onDone) {
			t.Fatal("read accepted while the backend refuses")
		}
	}
	c.Read(0, 0x40, onDone) // grow the MSHR's waiter capacity once
	retry()                 // one more unmeasured retry, then the window
	const retries = 1000
	allocs := allocgate.Mallocs(func() {
		for i := 0; i < retries; i++ {
			retry()
		}
	})
	if allocs != 0 {
		t.Fatalf("refused miss allocated %d times in %d retries; want 0", allocs, retries)
	}
}

// TestNewTable6Bytes pins what building the paper's 16 MiB LLC costs: one
// array of lines and one of LRU stacks (4.46 MB), with no per-set slice
// headers on top.
func TestNewTable6Bytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(Table6Config(), &fakeMem{}, 8)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 4.6 {
		t.Fatalf("cache.New(Table6Config()) allocated %.2f MB; want ≤ 4.6", mb)
	}
}
