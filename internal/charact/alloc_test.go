//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package charact

import (
	"testing"

	"repro/internal/allocgate"
	"repro/internal/dram"
	"repro/internal/faultmodel"
)

// TestFlipFreeTestZeroAlloc pins Algorithm 1's quiet path: at HCFirst/4
// every victim is below its quiet bound, so HammerDoubleSided activates
// both aggressors and skips the read-back, and once the warm-up sweep has
// drawn the chip's row floors and bounds it allocates nothing, on paired
// and unpaired chips with on-die ECC. faultmodel's
// TestFlipFreeTestFlipsZeroAlloc gates the read-back itself on the same
// chips.
func TestFlipFreeTestZeroAlloc(t *testing.T) {
	for _, paired := range []bool{false, true} {
		c := testChip(t, func(cfg *faultmodel.Config) {
			cfg.Type = dram.LPDDR4
			cfg.OnDieECC = true
			cfg.PairedWordlines = paired
			cfg.W3 = 0.12
		})
		tt := newTester(t, c)
		// Below half of every threshold, so no cell can flip.
		hc := int(c.Config().HCFirst) / 4
		test := func() {
			for v := 8; v < c.Rows()-8; v += 13 {
				if q := c.QuietBelow(0, v); hc >= q {
					t.Fatalf("paired=%v victim %d: hc %d is not below its quiet bound %d", paired, v, hc, q)
				}
				flips, err := tt.HammerDoubleSided(v, hc)
				if err != nil || len(flips) > 0 {
					t.Fatalf("paired=%v victim %d: %d flips, %v", paired, v, len(flips), err)
				}
			}
		}
		test() // draw the floors and bounds and grow the activation list
		test() // one more unmeasured sweep, then the window
		const sweeps = 20
		allocs := allocgate.Mallocs(func() {
			for i := 0; i < sweeps; i++ {
				test()
			}
		})
		if allocs != 0 {
			t.Errorf("paired=%v: %d sweeps of flip-free tests allocated %d times; want 0", paired, sweeps, allocs)
		}
	}
}

// TestFlipFreeAnyFlipZeroAlloc pins the HCfirst probe: once the warm-up
// sweep has drawn a chip's floors and bounds and built the rows it scans,
// an AnyFlip sweep over every victim that flips nothing allocates
// nothing. Its hammer count, 0.6·HCFirst, is above half of the weakest
// thresholds, so the sweep holds both quiet victims, which skip the
// read-back, and victims near the weak cell, whose read-back reaches the
// floor prune and the cell scan; the test requires both kinds.
func TestFlipFreeAnyFlipZeroAlloc(t *testing.T) {
	for _, paired := range []bool{false, true} {
		c := testChip(t, func(cfg *faultmodel.Config) {
			cfg.Type = dram.LPDDR4
			cfg.OnDieECC = true
			cfg.PairedWordlines = paired
			cfg.W3 = 0.12
		})
		tt := newTester(t, c)
		hc := int(0.6 * c.Config().HCFirst)
		quiet, loud := 0, 0
		for v := 0; v < c.Rows(); v++ {
			if _, _, ok := c.AggressorsFor(v); !ok {
				continue
			}
			if hc < c.QuietBelow(0, v) {
				quiet++
			} else {
				loud++
			}
		}
		if quiet == 0 || loud == 0 {
			t.Fatalf("paired=%v: %d quiet and %d read-back victims at hc %d; want both", paired, quiet, loud, hc)
		}
		sweep := func() {
			if any, err := tt.AnyFlip(hc, 1); err != nil || any {
				t.Fatalf("paired=%v: AnyFlip(%d, 1) = %v, %v; want a flip-free sweep", paired, hc, any, err)
			}
		}
		sweep() // build the scanned rows and grow the activation list
		sweep() // one more unmeasured sweep, then the window
		const sweeps = 20
		allocs := allocgate.Mallocs(func() {
			for i := 0; i < sweeps; i++ {
				sweep()
			}
		})
		if allocs != 0 {
			t.Errorf("paired=%v: %d flip-free AnyFlip sweeps allocated %d times; want 0", paired, sweeps, allocs)
		}
	}
}
