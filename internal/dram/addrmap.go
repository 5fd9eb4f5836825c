package dram

import (
	"fmt"
	"math/bits"
)

// Address identifies one cache-line-sized column in the channel.
type Address struct {
	Rank, Bank, Row, Col int
}

// AddressMapper translates physical line addresses to DRAM coordinates.
// The mapping is Row:Rank:Bank:Column (column bits lowest), the common
// open-page-friendly layout: consecutive cache lines fill a row buffer,
// then rotate across banks, so streaming workloads exploit row locality
// while independent streams spread over banks. Bank bits are XORed with
// low row bits to reduce pathological bank conflicts, as many controllers
// do; the XOR permutes the bank index only when the bank count is a power
// of two, so other counts are rejected.
type AddressMapper struct {
	geo      Geometry
	banks    int
	lineMask int64
}

// NewAddressMapper builds a mapper for the geometry.
func NewAddressMapper(geo Geometry) (*AddressMapper, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if bits.OnesCount(uint(geo.Banks())) != 1 {
		return nil, fmt.Errorf("dram: address mapping needs a power-of-two bank count, got %d (%d groups × %d banks)",
			geo.Banks(), geo.BankGroups, geo.BanksPerGroup)
	}
	return &AddressMapper{geo: geo, banks: geo.Banks(), lineMask: int64(geo.LineBytes - 1)}, nil
}

// Map translates a byte address to DRAM coordinates. Addresses wrap
// modulo the channel capacity so trace generators need not care about the
// exact size.
func (m *AddressMapper) Map(addr int64) Address {
	line := (addr / int64(m.geo.LineBytes))
	col := int(line % int64(m.geo.Columns))
	line /= int64(m.geo.Columns)
	bank := int(line % int64(m.banks))
	line /= int64(m.banks)
	rank := int(line % int64(m.geo.Ranks))
	line /= int64(m.geo.Ranks)
	row := int(line % int64(m.geo.Rows))
	// XOR low row bits into the bank index to spread row-conflict streams.
	bank = (bank ^ row) & (m.banks - 1)
	return Address{Rank: rank, Bank: bank, Row: row, Col: col}
}

// LineAddress returns the aligned line address containing addr.
func (m *AddressMapper) LineAddress(addr int64) int64 { return addr &^ m.lineMask }

// AddressOf inverts Map: it returns a byte address whose coordinates are
// a. Attack code uses it to aim requests at specific rows.
func (m *AddressMapper) AddressOf(a Address) int64 {
	raw := (a.Bank ^ a.Row) & (m.banks - 1)
	line := ((int64(a.Row)*int64(m.geo.Ranks)+int64(a.Rank))*int64(m.banks)+int64(raw))*
		int64(m.geo.Columns) + int64(a.Col)
	return line * int64(m.geo.LineBytes)
}

func (a Address) String() string {
	return fmt.Sprintf("rank %d bank %d row %d col %d", a.Rank, a.Bank, a.Row, a.Col)
}
