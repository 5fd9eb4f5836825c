//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test pass (CI runs both).

package mitigation

import "testing"

// TestDecisionsZeroAlloc is the allocation gate of the mechanism
// contract: under a steady double-sided attack, fed the way the memory
// controller feeds them, no mechanism touches the heap once its tables
// are warm. The system is small enough that the measured steps cross
// TRR's and BlockHammer's epochs, TWiCe's and Ideal's thresholds, and
// REF rotations over the victim.
func TestDecisionsZeroAlloc(t *testing.T) {
	p := Params{HCFirst: 2_000, Rows: 1024, Banks: 4, TRC: 56, TREFI: 1000, TREFW: 256_000, Seed: 1}
	for _, build := range []func() (Mechanism, error){
		func() (Mechanism, error) { return NewNone(), nil },
		func() (Mechanism, error) { return NewIncreasedRefresh(p) },
		func() (Mechanism, error) { return NewPARA(p, 833) },
		func() (Mechanism, error) { return NewProHIT(p) },
		func() (Mechanism, error) { return NewMRLoc(p) },
		func() (Mechanism, error) { return NewTWiCe(p, false) },
		func() (Mechanism, error) { return NewIdeal(p) },
		func() (Mechanism, error) { return NewBlockHammer(p) },
		func() (Mechanism, error) { return NewTRR(p) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		step := doubleSidedStep(m, p)
		for i := 0; i < 100; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: a 64-ACT step allocated %.2f times; want 0", m.Name(), allocs)
		}
	}
}

// doubleSidedStep returns one 64-ACT step of a double-sided attack on
// row 300 of bank 1, one ACT per tRC. As in the controller, a throttler
// is consulted before each demand ACT and told who issued it, each
// decision's victims are copied out before they are activated as
// mitigation refreshes, and every tREFI a REF hands each bank the next
// rows of the refresh rotation.
func doubleSidedStep(m Mechanism, p Params) func() {
	const bank, victim = 1, 300
	th, _ := m.(Throttler)
	rowsPerREF := int(int64(p.Rows) * p.TREFI / p.TREFW)
	queued := make([]int, 0, 16)
	var cycle int64
	refRow, side := 0, 0
	refresh := func(b int, victims []int) {
		queued = append(queued[:0], victims...)
		for _, v := range queued {
			m.OnActivate(b, v, cycle, true)
		}
	}
	return func() {
		for i := 0; i < 64; i++ {
			cycle += p.TRC
			if cycle%p.TREFI < p.TRC {
				for b := 0; b < p.Banks; b++ {
					refresh(b, m.OnAutoRefresh(b, refRow, rowsPerREF, cycle))
				}
				refRow = (refRow + rowsPerREF) % p.Rows
			}
			row := victim - 1 + 2*side
			side ^= 1
			if th != nil {
				th.AdmitRequest(0, bank, row, 0.5, cycle)
				th.ActAllowed(0, bank, row, cycle)
				th.OnRequesterACT(0, bank, row, cycle)
			}
			refresh(bank, m.OnActivate(bank, row, cycle, false))
		}
	}
}
