package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// saturatedTickController builds a controller plus a refill closure that
// keeps its read queue at capacity from a fixed mixed-bank address pool —
// the steady state the dense benchmarks live in.
func saturatedTickController(tb testing.TB) (*Controller, func()) {
	tb.Helper()
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Table6Config()
	ctrl, err := New(cfg, ch, mitigation.NewNone())
	if err != nil {
		tb.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		tb.Fatal(err)
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

// BenchmarkSaturatedTick measures the per-cycle cost of the scheduler
// with the read queue pinned at capacity.
func BenchmarkSaturatedTick(b *testing.B) {
	ctrl, fill := saturatedTickController(b)
	fill()
	for i := 0; i < 10_000; i++ { // warm the free list and returns buffer
		ctrl.Tick()
		fill()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Tick()
		fill()
	}
}
