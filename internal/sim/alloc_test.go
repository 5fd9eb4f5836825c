//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestEventBulkSkipZeroAlloc is the allocation-regression gate of the
// event engine's bulk-skip path, the companion of the controller's
// TestSaturatedTickZeroAlloc: on a pure-gap workload the loop settles
// into Advance jumps punctuated by exact ticks at REF deadlines, and
// everything after newSystem must stay off the heap. The gate compares total allocations
// of a short and a 4x-longer run of the same configuration: setup cost
// is identical, so any difference is the loop allocating per cycle (or
// per skip), which is exactly the regression the event engine exists to
// avoid.
func TestEventBulkSkipZeroAlloc(t *testing.T) {
	// One record whose gap is never exhausted within MaxCPUCycles: the
	// core stays in an arithmetic gap run for the whole simulation, the
	// LLC is never touched, and the controller only ever services
	// refresh deadlines.
	mix := trace.Mix{Name: "pure-gap", Traces: []*trace.Trace{{
		Name:    "gap",
		Records: []trace.Record{{Gap: 1 << 30, Addr: 0}},
	}}}

	run := func(maxCycles int64) func() {
		cfg := Table6Config(0, 1<<40)
		cfg.MaxCPUCycles = maxCycles
		cfg.Engine = EngineEvent
		return func() {
			s, err := newSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			s.runEvent()
			if s.cpuCycle != maxCycles {
				t.Fatalf("run ended at cycle %d, want %d", s.cpuCycle, maxCycles)
			}
		}
	}

	const base = 100_000
	short := testing.AllocsPerRun(10, run(base))
	long := testing.AllocsPerRun(10, run(4*base))
	if long-short > 0.5 {
		t.Fatalf("event engine allocated in the bulk-skip loop: %.1f allocs at %d cycles vs %.1f at %d",
			long, 4*base, short, base)
	}
}

// TestBackPressuredDemandPathZeroAlloc is the allocation gate of the
// dense demand path: eight memory-bound cores in front of a read queue
// shorter than the LLC's MSHR count, so loads are refused both by full
// MSHRs and by the full queue and retried through cpu → LLC → memctrl.
// Once the hit ring, MSHR waiter lists and completion buffers have
// reached their working sizes, an exact cycle must not touch the heap,
// neither for accepted reads nor for refused retries.
func TestBackPressuredDemandPathZeroAlloc(t *testing.T) {
	cfg := Table6Config(0, 1<<40)
	cfg.Ctrl.ReadQueue = 16
	s, err := newSystem(cfg, trace.Mixes(1, 8, 2_000, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300_000; i++ {
		s.tick()
	}
	full := s.ctrl.Stats.ReadQueueFull
	allocs := testing.AllocsPerRun(20_000, s.tick)
	if s.ctrl.Stats.ReadQueueFull == full {
		t.Fatal("the mix never filled the read queue: no retry was exercised")
	}
	if allocs != 0 {
		t.Fatalf("back-pressured exact cycle allocated %.3f times per cycle; want 0", allocs)
	}
}
