// Package faultmodel implements the circuit-level RowHammer fault model
// that substitutes for the paper's 1580 real DRAM chips (see DESIGN.md §2
// and §4). A Chip exposes the operations the paper's testing
// infrastructure performs — write a data pattern, disable refresh,
// activate aggressor rows, read back bit flips — on top of a per-cell
// vulnerability model: power-law hammer thresholds, odd-distance coupling,
// true-/anti-cell orientation, per-cell data-pattern affinity, optional
// paired-wordline remapping, and optional on-die ECC.
package faultmodel

import "fmt"

// Pattern is one of the DRAM data patterns of Section 4.3. Every byte of
// every row is written with the pattern's byte; the Checkered and
// RowStripe patterns write the inverse byte into alternating rows.
type Pattern int

const (
	Solid0     Pattern = iota // SO0: 0x00 everywhere
	Solid1                    // SO1: 0xFF everywhere
	ColStripe0                // CS0: 0x55 everywhere
	ColStripe1                // CS1: 0xAA everywhere
	Checkered0                // CH0: 0x55 in even rows, 0xAA in odd rows
	Checkered1                // CH1: 0xAA in even rows, 0x55 in odd rows
	RowStripe0                // RS0: 0x00 in even rows, 0xFF in odd rows
	RowStripe1                // RS1: 0xFF in even rows, 0x00 in odd rows
	NumPatterns
)

// Patterns lists all patterns in definition order.
func Patterns() []Pattern {
	ps := make([]Pattern, NumPatterns)
	for i := range ps {
		ps[i] = Pattern(i)
	}
	return ps
}

// FigurePatterns lists the six patterns Figure 4 reports coverage for.
func FigurePatterns() []Pattern {
	return []Pattern{RowStripe0, RowStripe1, ColStripe0, ColStripe1, Checkered0, Checkered1}
}

func (p Pattern) String() string {
	switch p {
	case Solid0:
		return "Solid0"
	case Solid1:
		return "Solid1"
	case ColStripe0:
		return "ColStripe0"
	case ColStripe1:
		return "ColStripe1"
	case Checkered0:
		return "Checkered0"
	case Checkered1:
		return "Checkered1"
	case RowStripe0:
		return "RowStripe0"
	case RowStripe1:
		return "RowStripe1"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Short returns the paper's two-letter abbreviation plus polarity.
func (p Pattern) Short() string {
	switch p {
	case Solid0:
		return "SO0"
	case Solid1:
		return "SO1"
	case ColStripe0:
		return "CS0"
	case ColStripe1:
		return "CS1"
	case Checkered0:
		return "CH0"
	case Checkered1:
		return "CH1"
	case RowStripe0:
		return "RS0"
	case RowStripe1:
		return "RS1"
	default:
		return "??"
	}
}

// baseByte is the byte written into even rows.
func (p Pattern) baseByte() byte {
	switch p {
	case Solid0, RowStripe0:
		return 0x00
	case Solid1, RowStripe1:
		return 0xFF
	case ColStripe0, Checkered0:
		return 0x55
	default: // ColStripe1, Checkered1
		return 0xAA
	}
}

// alternates reports whether odd rows store the inverse byte.
func (p Pattern) alternates() bool {
	switch p {
	case Checkered0, Checkered1, RowStripe0, RowStripe1:
		return true
	default:
		return false
	}
}

// RowByte returns the byte the pattern stores in the given row.
func (p Pattern) RowByte(row int) byte {
	b := p.baseByte()
	if p.alternates() && row&1 == 1 {
		b = ^b
	}
	return b
}

// Bit returns the stored value of the given bit of the given row
// (bit indices count from the row's least-significant data bit; bytes
// repeat across the row).
func (p Pattern) Bit(row, bit int) byte {
	return (p.RowByte(row) >> (uint(bit) & 7)) & 1
}

// Inverse returns the pattern with all stored bits flipped.
func (p Pattern) Inverse() Pattern {
	switch p {
	case Solid0:
		return Solid1
	case Solid1:
		return Solid0
	case ColStripe0:
		return ColStripe1
	case ColStripe1:
		return ColStripe0
	case Checkered0:
		return Checkered1
	case Checkered1:
		return Checkered0
	case RowStripe0:
		return RowStripe1
	default:
		return RowStripe0
	}
}
