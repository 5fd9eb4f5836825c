// Attack: an end-to-end double-sided RowHammer attack through the
// cycle-accurate memory controller against a simulated DDR4 chip — first
// unprotected, then with PARA enabled. The access pattern is the strong
// threat model of Section 6: the attacker knows the physical row layout
// and issues alternating row-conflict reads to the victim's two
// neighbours as fast as the DRAM protocol allows.
package main

import (
	"fmt"
	"log"

	rowhammer "repro"
)

// attack hammers the victim's neighbours through the controller for the
// given number of memory cycles and returns the bit flips that escaped
// every refresh of the victim row.
func attack(mech rowhammer.Mechanism, cycles int64) (flips int, acts int64, err error) {
	geo := rowhammer.Table6Geometry()
	ch, err := rowhammer.NewChannel(geo, rowhammer.DDR4Timing(geo.Rows))
	if err != nil {
		return 0, 0, err
	}
	ctrl, err := rowhammer.NewMemController(rowhammer.Table6MemControllerConfig(), ch, mech)
	if err != nil {
		return 0, 0, err
	}
	mapper, err := rowhammer.NewAddressMapper(geo)
	if err != nil {
		return 0, 0, err
	}

	// A DDR4-new-class chip (HCfirst 10k) spanning the whole channel.
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name:         "attacked-ddr4-new",
		Banks:        geo.Banks(),
		Rows:         geo.Rows,
		RowBits:      1024,
		HCFirst:      10_000,
		Rate150k:     5e-5,
		WorstPattern: rowhammer.RowStripe0,
		Seed:         99,
	})
	if err != nil {
		return 0, 0, err
	}
	chip.WriteAll(rowhammer.RowStripe0)

	// The hammer observer accounts every activation the controller
	// performs — demand or mitigation — against the chip, and clears a
	// row's damage whenever the auto-refresh rotation restores it.
	obs := rowhammer.NewHammerObserver(chip)
	ctrl.OnACT(obs.OnACT)
	ctrl.OnRefresh(obs.OnRefresh)

	// The attacker has profiled the chip: target the weakest cell's row.
	weak := chip.WeakestCell()
	victim, bank := weak.Row, weak.Bank
	aggLo := mapper.AddressOf(rowhammer.Address{Bank: bank, Row: victim - 1})
	aggHi := mapper.AddressOf(rowhammer.Address{Bank: bank, Row: victim + 1})

	// Alternate reads to the two aggressor rows; each is a row conflict,
	// so every read costs an ACT (the classic hammering loop).
	next := aggLo
	for c := int64(0); c < cycles; c++ {
		if ctrl.PendingReads() == 0 {
			ctrl.EnqueueRead(0, next, func() {})
			if next == aggLo {
				next = aggHi
			} else {
				next = aggLo
			}
		}
		ctrl.Tick()
	}
	for _, f := range obs.Flips() {
		if f.Bank == bank && f.Row == victim {
			flips++
		}
	}
	return flips, ctrl.Stats.DemandACTs, nil
}

func main() {
	geo := rowhammer.Table6Geometry()
	t := rowhammer.DDR4Timing(geo.Rows)

	// ~64 ms of wall-clock hammering: one full refresh window.
	cycles := t.REFW

	fmt.Println("double-sided RowHammer through the memory controller (one 64 ms refresh window)")

	flips, acts, err := attack(nil, cycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  unprotected:    %6d demand ACTs → %d bit flips in the victim row\n", acts, flips)

	cfg := rowhammer.Table6SimConfig(0, 1)
	para, err := rowhammer.NewPARA(cfg.MitigationParams(10_000, 1), t.TCKPS)
	if err != nil {
		log.Fatal(err)
	}
	flips, acts, err = attack(para, cycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  PARA-protected: %6d demand ACTs → %d bit flips in the victim row\n", acts, flips)

	fmt.Println("\nPARA's probabilistic neighbour refreshes reset the victim's charge")
	fmt.Println("before the hammer count reaches the chip's HCfirst.")
}
