//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package faultmodel

import (
	"testing"

	"repro/internal/allocgate"
	"repro/internal/dram"
)

// TestFlipFreeTestFlipsZeroAlloc pins the read-back of a double-sided
// test that flips nothing: BeginTest, both Activates and TestFlips, on
// the chips of charact's TestFlipFreeTestZeroAlloc, whose tester skips
// this read-back below each victim's quiet bound. Once the warm-up sweep
// has drawn the floors of the rows it reads, every row stops at the
// floor prune and the sweep allocates nothing.
func TestFlipFreeTestFlipsZeroAlloc(t *testing.T) {
	for _, paired := range []bool{false, true} {
		cfg := testConfig()
		cfg.Seed = 7
		cfg.Type = dram.LPDDR4
		cfg.OnDieECC = true
		cfg.PairedWordlines = paired
		cfg.W3 = 0.12
		c := mustChip(t, cfg)
		c.WriteAll(cfg.WorstPattern)
		// Below half of every threshold, so no cell can flip.
		hc := int(cfg.HCFirst) / 4
		var nonce uint64
		test := func() {
			for v := 8; v < c.Rows()-8; v += 13 {
				lo, hi, _ := c.AggressorsFor(v)
				nonce++
				c.BeginTest(nonce)
				if err := c.Activate(0, lo, hc); err != nil {
					t.Fatal(err)
				}
				if err := c.Activate(0, hi, hc); err != nil {
					t.Fatal(err)
				}
				if flips := c.TestFlips(0); len(flips) > 0 {
					t.Fatalf("paired=%v victim %d: %d flips at hc %d", paired, v, len(flips), hc)
				}
			}
		}
		test() // draw the rows' floors and grow the activation list
		test() // one more unmeasured sweep, then the window
		const sweeps = 20
		allocs := allocgate.Mallocs(func() {
			for i := 0; i < sweeps; i++ {
				test()
			}
		})
		if allocs != 0 {
			t.Errorf("paired=%v: %d sweeps of flip-free read-backs allocated %d times; want 0", paired, sweeps, allocs)
		}
	}
}
