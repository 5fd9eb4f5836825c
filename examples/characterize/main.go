// Characterize: run the paper's methodology over a small chip
// population — reverse-engineer each chip's internal row mapping, find
// its worst-case data pattern, and measure HCfirst — then summarize per
// configuration like Figure 8 / Table 4.
package main

import (
	"fmt"
	"log"

	rowhammer "repro"
)

func main() {
	// One chip from each LPDDR4 module group plus a few DDR4 modules.
	modules := append(rowhammer.DDR4Modules()[:4], rowhammer.LPDDR4Modules()[:6]...)
	pop := rowhammer.NewPopulation(modules, rowhammer.ScaleSmall, 7)

	fmt.Printf("population: %d chips from %d modules\n\n", len(pop.Chips), len(pop.Modules))

	for _, spec := range pop.Chips {
		chip, err := pop.Instantiate(spec)
		if err != nil {
			log.Fatal(err)
		}
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			log.Fatal(err)
		}

		// Step 1 (Section 4.3): deduce the logical→physical row mapping
		// by hammering single rows and watching where the flips land.
		remap, err := tester.ReverseEngineerRemap(48)
		if err != nil {
			log.Fatal(err)
		}

		// Step 2 (Section 5.2): find the worst-case data pattern.
		tester.WritePattern(rowhammer.Checkered0)
		cov, err := tester.MeasureCoverage(min(150_000, tester.MaxHC), 3, 2)
		if err != nil {
			log.Fatal(err)
		}
		worst, ok := cov.WorstPattern()
		worstName := "n/a (not enough flips)"
		if ok {
			worstName = worst.String()
			tester.WritePattern(worst)
		}

		// Step 3 (Section 5.5): measure HCfirst under the worst pattern.
		hcFirst, found, err := tester.MeasureHCFirst(2)
		if err != nil {
			log.Fatal(err)
		}
		hcStr := "no flips ≤ 150k"
		if found {
			hcStr = fmt.Sprintf("HCfirst=%d", hcFirst)
		}

		fmt.Printf("%-22s %-9s remap=%-16v worstDP=%-12s %s\n",
			spec.Name, spec.Node.String(), remap, worstName, hcStr)
	}
}
