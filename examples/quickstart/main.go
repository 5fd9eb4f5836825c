// Quickstart: build one simulated DRAM chip, double-sided hammer a row
// the way Algorithm 1 does, and watch bit flips appear once the hammer
// count crosses the chip's HCfirst.
package main

import (
	"fmt"
	"log"

	rowhammer "repro"
)

func main() {
	// An LPDDR4-1y-class chip: the most vulnerable configuration the
	// paper measured (HCfirst = 4.8k, Table 4), with on-die ECC.
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "demo-lpddr4-1y",
		Rows: 1024, Banks: 1, RowBits: 4096,
		HCFirst:      4_800,
		Rate150k:     3e-4,
		W3:           0.12,
		W5:           0.05,
		WorstPattern: rowhammer.RowStripe1,
		OnDieECC:     true,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}

	tester, err := rowhammer.NewTester(chip, 0)
	if err != nil {
		log.Fatal(err)
	}
	tester.WritePattern(rowhammer.RowStripe1)

	// The paper's attack model: the weakest cell's row is the victim;
	// its two physically adjacent rows are the aggressors.
	victim := chip.WeakestCell().Row
	fmt.Printf("chip %s: weakest cell in row %d (threshold %.0f hammers)\n",
		chip.Config().Name, victim, chip.WeakestCell().Threshold)

	for _, hc := range []int{1_000, 2_500, 5_000, 10_000, 50_000} {
		flips, err := tester.HammerDoubleSided(victim, hc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  HC=%6d → %2d observed bit flips", hc, len(flips))
		if len(flips) > 0 {
			f := flips[0]
			fmt.Printf("   (first: bank %d row %d bit %d)", f.Bank, f.Row, f.Bit)
		}
		fmt.Println()
	}

	// Find the chip's HCfirst the way Section 5.5 does.
	hcFirst, found, err := tester.MeasureHCFirst(1)
	if err != nil {
		log.Fatal(err)
	}
	if !found {
		fmt.Println("chip is not RowHammerable within the 150k sweep")
		return
	}
	fmt.Printf("measured HCfirst = %d hammers (ground truth %.0f)\n",
		hcFirst, chip.Config().HCFirst)
}
