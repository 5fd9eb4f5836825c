// Package allocgate counts heap allocations exactly, for the zero-alloc
// gates in the simulator's tests.
package allocgate

import "runtime"

// Mallocs returns the number of heap allocations f makes, counted at
// GOMAXPROCS 1. testing.AllocsPerRun truncates to whole allocations per
// run, which hides one made every few hundred runs, such as a ring slot
// or a queue growing to a new high-water mark.
func Mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
