//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package sim

import (
	"testing"

	"repro/internal/allocgate"
	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/trace"
)

// TestEventBulkSkipZeroAlloc is the allocation-regression gate of the
// event engine's bulk-skip path, the companion of the controller's
// TestSaturatedTickZeroAlloc: the loop settles into Advance jumps
// punctuated by exact ticks, and everything after newSystem must stay off
// the heap. The gate compares total allocations of a short and a
// 4x-longer run of the same configuration: setup cost is identical, so
// any difference is the loop allocating per cycle (or per skip), which is
// exactly the regression the event engine exists to avoid.
//
// Two workloads take the two kinds of jump. In the first, one record's
// gap is never exhausted within MaxCPUCycles: the core stays in an
// arithmetic gap run for the whole simulation, the LLC is never touched,
// and the controller only ever services refresh deadlines. In the
// second, a paced attacker (the differential corpus's duty-cycle stream)
// jumps with a load outstanding while its window fills behind it. It runs
// without the hammer observer, whose per-REF timeline grows with the run.
func TestEventBulkSkipZeroAlloc(t *testing.T) {
	paced := Table6Config(0, 1<<40)
	paced.Geo.Rows = 4096
	paced.T = dram.DDR4_2400(paced.Geo.Rows)
	paced.LLC.SizeBytes = 1 << 20
	attackTrace, _, err := attack.Spec{Kind: attack.DoubleSided, Records: 1024, Seed: 0xdec0, DutyCycle: 0.25, Phase: 0.3}.
		Synthesize(paced.Geo, attack.Target{Bank: 3, Row: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		mix  trace.Mix
		// loaded: the run must reach a cycle where the core offers a jump
		// while one of its loads waits in the read queue.
		loaded bool
	}{
		{"pure-gap", Table6Config(0, 1<<40), trace.Mix{Name: "pure-gap", Traces: []*trace.Trace{{
			Name:    "gap",
			Records: []trace.Record{{Gap: 1 << 30, Addr: 0}},
		}}}, false},
		{"paced-attacker", paced, trace.Mix{Name: "paced", Traces: []*trace.Trace{attackTrace}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(maxCycles int64) func() {
				cfg := tc.cfg
				cfg.MaxCPUCycles = maxCycles
				cfg.Engine = EngineEvent
				return func() {
					s, err := newSystem(cfg, tc.mix)
					if err != nil {
						t.Fatal(err)
					}
					s.runEvent()
					if s.cpuCycle != maxCycles {
						t.Fatalf("run ended at cycle %d, want %d", s.cpuCycle, maxCycles)
					}
				}
			}
			if tc.loaded {
				s, err := newSystem(tc.cfg, tc.mix)
				if err != nil {
					t.Fatal(err)
				}
				c := s.cores[0]
				for i := 0; !(s.ctrl.PendingReads() > 0 && !c.Asleep() && c.BulkWindow() >= minBulk); i++ {
					if i == 100_000 {
						t.Fatal("the core never offered a jump with a load in the read queue")
					}
					s.tick()
				}
			}

			const base = 100_000
			short := testing.AllocsPerRun(10, run(base))
			long := testing.AllocsPerRun(10, run(4*base))
			if long-short > 0.5 {
				t.Fatalf("event engine allocated in the bulk-skip loop: %.1f allocs at %d cycles vs %.1f at %d",
					long, 4*base, short, base)
			}
		})
	}
}

// TestBackPressuredDemandPathZeroAlloc is the allocation gate of the
// dense demand path. In the first case eight memory-bound cores sit in
// front of a read queue shorter than the LLC's MSHR count, so loads are
// refused both by full MSHRs and by the full queue; in the second an
// attacker hammers beside two benign cores and BlockHammer turns its
// reads away at admission. Refused cores sleep and each cycle they sleep
// counts their refusal again (system.refusalHolds). Once the hit ring,
// MSHR waiter lists, completion buffers and the throttler's tables have
// reached their working sizes, an exact cycle must not touch the heap,
// neither for accepted reads nor for refused or slept retries.
func TestBackPressuredDemandPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		system func(t *testing.T) *system
		// refused reads the counter the case's refusals move.
		refused func(st memctrl.Stats) int64
	}{
		{"read-queue-full", func(t *testing.T) *system {
			cfg := Table6Config(0, 1<<40)
			cfg.Ctrl.ReadQueue = 16
			s, err := newSystem(cfg, trace.Mixes(1, 8, 2_000, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(st memctrl.Stats) int64 { return st.ReadQueueFull }},
		{"blockhammer-throttled", func(t *testing.T) *system {
			cfg, mix, _ := attackScenario(attack.DoubleSided, 0, 0, 2,
				blockHammer(256, 100_000, mitigation.NewBlockHammer), nil)(t)
			cfg.Observer = nil
			s, err := newSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(st memctrl.Stats) int64 { return st.ThrottledReads }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.system(t)
			for i := 0; i < 300_000; i++ {
				s.tick()
			}
			before := tc.refused(s.ctrl.Stats)
			s.tick() // one more unmeasured cycle, then the window
			const cycles = 20_000
			allocs := allocgate.Mallocs(func() {
				for i := 0; i < cycles; i++ {
					s.tick()
				}
			})
			if tc.refused(s.ctrl.Stats) == before {
				t.Fatal("no read was refused: no retry was exercised")
			}
			if allocs != 0 {
				t.Fatalf("back-pressured exact cycles allocated %d times in %d cycles; want 0", allocs, cycles)
			}
		})
	}
}
