package faultmodel

import (
	"testing"
	"testing/quick"
)

func TestPatternBytes(t *testing.T) {
	cases := []struct {
		p          Pattern
		even, odd  byte
		alternates bool
	}{
		{Solid0, 0x00, 0x00, false},
		{Solid1, 0xFF, 0xFF, false},
		{ColStripe0, 0x55, 0x55, false},
		{ColStripe1, 0xAA, 0xAA, false},
		{Checkered0, 0x55, 0xAA, true},
		{Checkered1, 0xAA, 0x55, true},
		{RowStripe0, 0x00, 0xFF, true},
		{RowStripe1, 0xFF, 0x00, true},
	}
	for _, c := range cases {
		if got := c.p.RowByte(0); got != c.even {
			t.Errorf("%v even row byte = %#x, want %#x", c.p, got, c.even)
		}
		if got := c.p.RowByte(1); got != c.odd {
			t.Errorf("%v odd row byte = %#x, want %#x", c.p, got, c.odd)
		}
	}
}

func TestPatternInverseProperty(t *testing.T) {
	// Property: Inverse flips every stored bit, and is an involution.
	f := func(pRaw, rowRaw, bitRaw uint) bool {
		p := Pattern(pRaw % uint(NumPatterns))
		row := int(rowRaw % 1024)
		bit := int(bitRaw % 8192)
		inv := p.Inverse()
		if inv.Inverse() != p {
			return false
		}
		return p.Bit(row, bit)^inv.Bit(row, bit) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFigurePatternsAreSixNonSolid(t *testing.T) {
	ps := FigurePatterns()
	if len(ps) != 6 {
		t.Fatalf("figure patterns = %d, want 6", len(ps))
	}
	for _, p := range ps {
		if p == Solid0 || p == Solid1 {
			t.Errorf("solid pattern %v in Figure 4 set", p)
		}
	}
}

func TestPatternsEnumeration(t *testing.T) {
	if len(Patterns()) != int(NumPatterns) {
		t.Fatalf("Patterns() = %d entries", len(Patterns()))
	}
}
