//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/allocgate"
	"repro/internal/dram"
	"repro/internal/mitigation"
)

// saturatedTickController builds a controller over mech plus a refill
// closure that keeps its read queue at capacity from a fixed mixed-bank
// address pool: the steady state of a dense simulation.
func saturatedTickController(t *testing.T, mech mitigation.Mechanism) (*Controller, func()) {
	t.Helper()
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Table6Config()
	ctrl, err := New(cfg, ch, mech)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = mapper.AddressOf(dram.Address{
			Bank: rng.Intn(geo.Banks()),
			Row:  100 + rng.Intn(8), // hot rows: FR-FCFS hit chains stay busy
			Col:  rng.Intn(64),
		})
	}
	onDone := func() {}
	ai := 0
	fill := func() {
		for ctrl.PendingReads() < cfg.ReadQueue {
			if !ctrl.EnqueueRead(ai%4, addrs[ai%len(addrs)], onDone) {
				break
			}
			ai++
		}
	}
	return ctrl, fill
}

// TestSaturatedTickZeroAlloc is the allocation-regression gate of the
// indexed scheduler: once the free list, completion buffer and
// per-requester stats are warm, a saturated enqueue+Tick steady state
// must not touch the heap at all — the property that keeps dense
// simulations allocation-flat no matter how many cycles they run. It
// runs without mitigation and under each mechanism that queues victim
// refreshes, at HCfirst 512, where every one of them issues mitigation
// ACTs. The mitigation queue grows by amortized doubling and may still
// reach a new high-water mark after the warm-up (MRLoc's does, once), so
// the gate gives it headroom first and checks what the amortization
// rests on: ops leave the queue in place, and its capacity is reused.
func TestSaturatedTickZeroAlloc(t *testing.T) {
	geo := dram.Table6Geometry()
	tm := dram.DDR4_2400(geo.Rows)
	p := mitigation.Params{
		HCFirst: 512, Rows: geo.Rows, Banks: geo.Banks(),
		TRC: int64(tm.RC), TREFI: int64(tm.REFI), TREFW: tm.REFW, Seed: 1,
	}
	for _, tc := range []struct {
		name string
		mech func() (mitigation.Mechanism, error)
	}{
		{"None", func() (mitigation.Mechanism, error) { return mitigation.NewNone(), nil }},
		{"PARA", func() (mitigation.Mechanism, error) { return mitigation.NewPARA(p, tm.TCKPS) }},
		{"ProHIT", func() (mitigation.Mechanism, error) { return mitigation.NewProHIT(p) }},
		{"MRLoc", func() (mitigation.Mechanism, error) { return mitigation.NewMRLoc(p) }},
		{"TRR", func() (mitigation.Mechanism, error) { return mitigation.NewTRR(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mech, err := tc.mech()
			if err != nil {
				t.Fatal(err)
			}
			ctrl, fill := saturatedTickController(t, mech)
			fill()
			for i := 0; i < 200_000; i++ {
				ctrl.Tick()
				fill()
			}
			ctrl.mitQ = append(make([]mitOp, 0, 1024), ctrl.mitQ...)
			const ticks = 50_000
			warm := ctrl.Stats.MitigationACTs
			allocs := allocgate.Mallocs(func() {
				for i := 0; i < ticks; i++ {
					ctrl.Tick()
					fill()
				}
			})
			if allocs != 0 {
				t.Fatalf("saturated Tick steady state allocated %d times in %d cycles; want 0", allocs, ticks)
			}
			if tc.name != "None" && ctrl.Stats.MitigationACTs == warm {
				t.Fatal("the mechanism issued no mitigation ACT in the measured cycles, so the gate did not cover them")
			}
			t.Logf("%d mitigation ACTs, %d of them measured", ctrl.Stats.MitigationACTs, ctrl.Stats.MitigationACTs-warm)
		})
	}
}
