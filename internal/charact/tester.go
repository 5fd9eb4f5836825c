// Package charact is the testing-infrastructure substitute: it drives
// faultmodel chips through the paper's characterization methodology
// (Section 4.3, Algorithm 1) — worst-case double-sided hammering with
// refresh disabled — and implements the per-chip measurements behind
// Tables 2–5 and Figures 4–9.
package charact

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/faultmodel"
)

// Tester wraps one chip with the state Algorithm 1 needs: the written
// data pattern, a per-iteration nonce, and the 32 ms test-length guard.
type Tester struct {
	chip *faultmodel.Chip
	bank int

	// MaxHC is the largest hammer count a single test may use, derived
	// from the 32 ms refresh-window bound of Section 4.3. Tests above it
	// would conflate retention failures with RowHammer flips.
	MaxHC int

	nonce uint64
}

// NewTester prepares a chip for characterization on the given bank.
func NewTester(chip *faultmodel.Chip, bank int) (*Tester, error) {
	if bank < 0 || bank >= chip.Banks() {
		return nil, fmt.Errorf("charact: bank %d out of range [0,%d)", bank, chip.Banks())
	}
	return &Tester{
		chip:  chip,
		bank:  bank,
		MaxHC: dram.MaxHammersIn(chip.Config().Type, 32),
	}, nil
}

// Chip returns the chip under test.
func (t *Tester) Chip() *faultmodel.Chip { return t.chip }

// WritePattern programs the data pattern into all cells (Algorithm 1
// lines 2–3).
func (t *Tester) WritePattern(p faultmodel.Pattern) { t.chip.WriteAll(p) }

// HammerDoubleSided runs one core-loop iteration of Algorithm 1: refresh
// the victim, disable refresh, activate each physically-adjacent
// aggressor hc times, and read back the observed bit flips in every row
// the hammering can disturb (the chip's TestFlips). It returns an error
// when hc exceeds the 32 ms bound or the victim has no two adjacent rows.
func (t *Tester) HammerDoubleSided(victim, hc int) ([]faultmodel.Flip, error) {
	if hc <= 0 {
		return nil, fmt.Errorf("charact: hammer count must be positive, got %d", hc)
	}
	if hc > t.MaxHC {
		return nil, fmt.Errorf("charact: hammer count %d exceeds the 32 ms bound (%d)", hc, t.MaxHC)
	}
	lo, hi, ok := t.chip.AggressorsFor(victim)
	if !ok {
		return nil, fmt.Errorf("charact: victim row %d has no adjacent aggressor rows", victim)
	}
	t.nonce++
	t.chip.BeginTest(t.nonce)
	if err := t.chip.Activate(t.bank, lo, hc); err != nil {
		return nil, err
	}
	if err := t.chip.Activate(t.bank, hi, hc); err != nil {
		return nil, err
	}
	return t.chip.TestFlips(t.bank), nil
}

// HammerSingleSided activates a single aggressor row hc times and returns
// the observed flips around it (used to reverse-engineer row mappings).
func (t *Tester) HammerSingleSided(aggressor, hc int) ([]faultmodel.Flip, error) {
	if hc <= 0 || hc > 2*t.MaxHC {
		return nil, fmt.Errorf("charact: single-sided hammer count %d out of range", hc)
	}
	t.nonce++
	t.chip.BeginTest(t.nonce)
	if err := t.chip.Activate(t.bank, aggressor, hc); err != nil {
		return nil, err
	}
	return t.chip.TestFlips(t.bank), nil
}

// SweepResult aggregates one full-chip hammer sweep at a fixed HC.
type SweepResult struct {
	HC          int
	Pattern     faultmodel.Pattern
	Flips       map[faultmodel.Flip]bool // unique observed flips
	VictimRows  int                      // victims tested
	TestedBits  int64                    // victim rows × data bits per row
	FlipsByDist map[int]int              // victim-relative row offset → flips
}

// Rate returns the RowHammer bit flip rate: unique flipped cells over all
// tested bits (the paper's definition, Section 5.3).
func (r *SweepResult) Rate() float64 {
	if r.TestedBits == 0 {
		return 0
	}
	return float64(len(r.Flips)) / float64(r.TestedBits)
}

// Sweep double-sided hammers every victim row with the chip's current
// pattern and aggregates unique flips. The victims are rows 0, stride,
// 2·stride, … that have aggressors on both sides (stride > 1 samples the
// row space uniformly for cheaper sweeps; below 1 it means every row).
// Flips are also attributed to their row offset from the victim for
// Figure 6.
func (t *Tester) Sweep(hc, stride int) (*SweepResult, error) {
	res := &SweepResult{
		HC:          hc,
		Pattern:     t.chip.Pattern(),
		Flips:       make(map[faultmodel.Flip]bool),
		FlipsByDist: make(map[int]int),
	}
	for v := 0; v < t.chip.Rows(); v += max(stride, 1) {
		if _, _, ok := t.chip.AggressorsFor(v); !ok {
			continue
		}
		flips, err := t.HammerDoubleSided(v, hc)
		if err != nil {
			return nil, err
		}
		res.VictimRows++
		for _, f := range flips {
			res.Flips[f] = true
			res.FlipsByDist[f.Row-v]++
		}
	}
	res.TestedBits = int64(res.VictimRows) * int64(t.chip.RowBits())
	return res, nil
}

// AnyFlip sweeps Sweep's victims and reports whether any flip is
// observed at the given HC, stopping at the first one.
func (t *Tester) AnyFlip(hc, stride int) (bool, error) {
	for v := 0; v < t.chip.Rows(); v += max(stride, 1) {
		if _, _, ok := t.chip.AggressorsFor(v); !ok {
			continue
		}
		flips, err := t.HammerDoubleSided(v, hc)
		if err != nil {
			return false, err
		}
		if len(flips) > 0 {
			return true, nil
		}
	}
	return false, nil
}
