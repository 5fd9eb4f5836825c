package faultmodel

import (
	"math"
	"sort"
)

// This file exposes the chip's physical structure and cell thresholds to
// external hammer accountants (internal/attack's command-stream observer):
// queries only, no mutation of the chip's own damage state, so an observer
// can mirror the exact between-refreshes accumulation a live memory
// controller produces.

// WordlineIndex maps a logical row to its physical wordline (identity for
// ordinary chips, row/2 for paired-wordline chips).
func (c *Chip) WordlineIndex(row int) int { return c.wordlineOf(row) }

// ForEachCoupledWordline calls fn for every wordline disturbed by one
// activation of wl, with the coupling weight its accumulated damage grows
// by (0.5 at distance 1; W3/W5 at the odd far distances when configured).
func (c *Chip) ForEachCoupledWordline(wl int, fn func(neighbor int, weight float64)) {
	for _, d := range [...]int{1, 3, 5} {
		w := c.couplingWeight(d)
		if w == 0 {
			continue
		}
		if n := wl - d; n >= 0 {
			fn(n, w)
		}
		if n := wl + d; n < c.wordlines {
			fn(n, w)
		}
	}
}

// ThresholdCrossings returns the raw cell flips an accumulated damage of
// e effective hammers causes on a wordline of a bank (deterministic
// threshold crossing over the cells eligible under the currently written
// pattern), plus the smallest eligible threshold strictly above e —
// math.Inf(1) when no further cell can ever flip. Callers cache the
// returned next-threshold so the common ACT path costs one float
// comparison. The crossings cover the full raw bit array: with on-die
// ECC, Flip.Bit indexes data bits in [0,RowBits) and parity bits above,
// and ObservedFromRaw tells what the system sees after correction.
func (c *Chip) ThresholdCrossings(bank, wl int, e float64) ([]Flip, float64) {
	next := math.Inf(1)
	var flips []Flip
	k := c.rowsPerWordline()
	for row := wl * k; row < (wl+1)*k; row++ {
		cells := c.rowCells(bank, row)
		for i := range cells {
			cl := &cells[i]
			if !c.eligible(cl, c.pattern, row) {
				continue
			}
			t := cl.effectiveThreshold(c.pattern)
			if e >= t {
				flips = append(flips, Flip{Bank: bank, Row: row, Bit: cl.bit})
			} else if t < next {
				next = t
			}
		}
	}
	sort.Slice(flips, func(i, j int) bool {
		if flips[i].Row != flips[j].Row {
			return flips[i].Row < flips[j].Row
		}
		return flips[i].Bit < flips[j].Bit
	})
	return flips, next
}
