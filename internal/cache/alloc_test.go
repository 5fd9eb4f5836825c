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

// TestNewTable6Bytes pins what the paper's 16 MiB LLC costs. New
// allocates no line: an untouched cache, which an attacker reading
// around it with flush+load leaves untouched, stays under 0.1 MB. The
// first fill allocates one word per line and one LRU byte per way (2.36
// MB), with no per-set slice headers on top.
func TestNewTable6Bytes(t *testing.T) {
	var before, built, filled runtime.MemStats
	mem := &fakeMem{}
	runtime.ReadMemStats(&before)
	c, err := New(Table6Config(), mem, 8)
	runtime.ReadMemStats(&built)
	if err != nil {
		t.Fatal(err)
	}
	onDone := func() {}
	c.ReadUncached(0, 0x40, onDone)
	if c.lines != nil {
		t.Fatal("an uncached read allocated the lines")
	}
	c.Read(0, 0x80, onDone)
	mem.completeAll()
	runtime.ReadMemStats(&filled)
	runtime.KeepAlive(c)
	newMB := float64(built.TotalAlloc-before.TotalAlloc) / 1e6
	fillMB := float64(filled.TotalAlloc-before.TotalAlloc) / 1e6
	if newMB > 0.1 {
		t.Fatalf("cache.New(Table6Config()) allocated %.2f MB; want ≤ 0.1", newMB)
	}
	if fillMB > 2.4 {
		t.Fatalf("cache.New(Table6Config()) and one fill allocated %.2f MB; want ≤ 2.4", fillMB)
	}
	t.Logf("New allocated %.3f MB, New and one fill %.3f MB", newMB, fillMB)
}
