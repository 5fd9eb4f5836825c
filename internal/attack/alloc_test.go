//go:build !race

// The race detector instruments allocations, so the allocation gate only
// runs in the regular test pass (CI runs both).

package attack

import (
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/faultmodel"
)

// TestNewObserverTable6Bytes pins what a hammer observer over the
// paper's Table 6 chip (16 banks of 16,384 rows) costs to build: a page
// directory and the aggressor bitset, under 0.1 MB, where dense
// per-wordline arrays took 4.46 MB. Hammering one aggressor pair then
// touches a single 4 KiB page.
func TestNewObserverTable6Bytes(t *testing.T) {
	geo := dram.Table6Geometry()
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name: "table6", Banks: geo.Banks(), Rows: geo.Rows, RowBits: 1024,
		HCFirst: 512, Rate150k: 5e-5, WorstPattern: faultmodel.RowStripe0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chip.WriteAll(faultmodel.RowStripe0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := NewObserver(chip)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(o)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb > 0.1 {
		t.Fatalf("NewObserver over a Table 6 chip allocated %.2f MB; want ≤ 0.1", mb)
	}
	t.Logf("NewObserver over a Table 6 chip allocated %.3f MB", mb)
	const victim = 3*pageWordlines + pageWordlines/2
	for i := 0; i < 1_000; i++ {
		o.OnACT(0, 5, victim-1, int64(i))
		o.OnACT(0, 5, victim+1, int64(i))
	}
	if o.npages != 1 {
		t.Fatalf("hammering one aggressor pair allocated %d pages; want 1", o.npages)
	}
}
