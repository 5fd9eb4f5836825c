//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package charact

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/faultmodel"
)

// TestFlipFreeTestZeroAlloc pins Algorithm 1's inner loop: once the rows
// a double-sided test reads have their cells, a test that flips nothing
// allocates nothing, on paired and unpaired chips with on-die ECC.
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
				flips, err := tt.HammerDoubleSided(v, hc)
				if err != nil || len(flips) > 0 {
					t.Fatalf("paired=%v victim %d: %d flips, %v", paired, v, len(flips), err)
				}
			}
		}
		test() // generate the rows' cells and grow the activation list
		if allocs := testing.AllocsPerRun(20, test); allocs != 0 {
			t.Errorf("paired=%v: flip-free tests allocated %.1f times per sweep; want 0", paired, allocs)
		}
	}
}

// TestFlipFreeAnyFlipZeroAlloc pins the HCfirst probe: once a chip's rows
// have their cells, an AnyFlip sweep over every victim that flips nothing
// allocates nothing. Its hammer count, 0.6·HCFirst, is above half of the
// weakest thresholds, so rows near the weak cell pass the chip-wide prune
// and reach the row-level check and the cell scan.
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
		sweep := func() {
			if any, err := tt.AnyFlip(hc, 1); err != nil || any {
				t.Fatalf("paired=%v: AnyFlip(%d, 1) = %v, %v; want a flip-free sweep", paired, hc, any, err)
			}
		}
		sweep() // generate the rows' cells and grow the activation list
		if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
			t.Errorf("paired=%v: a flip-free AnyFlip sweep allocated %.1f times; want 0", paired, allocs)
		}
	}
}
