package chips

// ModuleSpec is one row of the paper's module tables (Tables 7 and 8 for
// DDR4/DDR3; LPDDR4 modules are synthesized to match Table 1's census and
// Table 4's minimum HCfirst values, since the paper publishes no per-
// module LPDDR4 data).
type ModuleSpec struct {
	ID   string // e.g. "DDR4-A16-18"
	Mfr  string
	Node TypeNode

	Date     string  // manufacture date "yy-ww"; "" when the paper lists N/A
	FreqMTs  int     // data rate in MT/s
	TRCns    float64 // tRC in nanoseconds
	SizeGB   int
	Chips    int // chips on the module
	PinWidth int // x4 / x8 / x16

	// MinHCFirst is the module's published minimum HCfirst in hammers;
	// zero encodes the paper's "N/A" (no flips within the HC ≤ 150k
	// sweep).
	MinHCFirst float64

	// VulnChips bounds how many of the module's chips have
	// HCfirst ≤ 150k; -1 means all of them. Calibrated so Table 2's
	// RowHammerable fractions reproduce.
	VulnChips int
}

// Modules expands a group row of Table 7/8 (one table line can describe
// several modules) into per-module specs.
func expand(id string, count int, m ModuleSpec) []ModuleSpec {
	ms := make([]ModuleSpec, count)
	for i := range ms {
		m := m
		m.ID = id
		if count > 1 {
			m.ID = id + string(rune('a'+i))
		}
		ms[i] = m
	}
	return ms
}

// DDR4Modules returns the 110 DDR4 modules of Table 7.
func DDR4Modules() []ModuleSpec {
	var ms []ModuleSpec
	add := func(id string, count int, m ModuleSpec) { ms = append(ms, expand(id, count, m)...) }

	// Manufacturer A.
	add("DDR4-A0-15", 16, ModuleSpec{Mfr: "A", Node: DDR4Old, Date: "17-08", FreqMTs: 2133, TRCns: 47.06, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 17_500, VulnChips: -1})
	add("DDR4-A16-18", 3, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "19-19", FreqMTs: 2400, TRCns: 46.16, SizeGB: 4, Chips: 4, PinWidth: 16, MinHCFirst: 12_500, VulnChips: -1})
	add("DDR4-A19-24", 6, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "19-36", FreqMTs: 2666, TRCns: 46.25, SizeGB: 4, Chips: 4, PinWidth: 16, MinHCFirst: 10_000, VulnChips: -1})
	add("DDR4-A25-33", 9, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "19-45", FreqMTs: 2666, TRCns: 46.25, SizeGB: 4, Chips: 4, PinWidth: 16, MinHCFirst: 10_000, VulnChips: -1})
	add("DDR4-A34-36", 3, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "19-51", FreqMTs: 2133, TRCns: 46.5, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 10_000, VulnChips: -1})
	add("DDR4-A37-46", 10, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "20-07", FreqMTs: 2400, TRCns: 46.16, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 12_500, VulnChips: -1})
	add("DDR4-A47-58", 12, ModuleSpec{Mfr: "A", Node: DDR4New, Date: "20-08", FreqMTs: 2133, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 10_000, VulnChips: -1})

	// Manufacturer B.
	add("DDR4-B0-2", 3, ModuleSpec{Mfr: "B", Node: DDR4Old, FreqMTs: 2133, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 30_000, VulnChips: -1})
	add("DDR4-B3-4", 2, ModuleSpec{Mfr: "B", Node: DDR4New, FreqMTs: 2133, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 25_000, VulnChips: -1})

	// Manufacturer C.
	add("DDR4-C0-7", 8, ModuleSpec{Mfr: "C", Node: DDR4Old, Date: "16-48", FreqMTs: 2133, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 147_500, VulnChips: -1})
	add("DDR4-C8-17", 10, ModuleSpec{Mfr: "C", Node: DDR4Old, Date: "17-12", FreqMTs: 2133, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 87_000, VulnChips: -1})
	add("DDR4-C45", 1, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-01", FreqMTs: 2400, TRCns: 45.75, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 54_000, VulnChips: -1})
	add("DDR4-C44", 1, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-06", FreqMTs: 2400, TRCns: 45.75, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 63_000, VulnChips: -1})
	add("DDR4-C34", 1, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-11", FreqMTs: 2400, TRCns: 45.75, SizeGB: 4, Chips: 4, PinWidth: 16, MinHCFirst: 62_500, VulnChips: -1})
	add("DDR4-C35-36", 2, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-23", FreqMTs: 2400, TRCns: 45.75, SizeGB: 4, Chips: 4, PinWidth: 16, MinHCFirst: 63_000, VulnChips: -1})
	add("DDR4-C37-43", 7, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-44", FreqMTs: 2133, TRCns: 46.5, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 57_500, VulnChips: -1})
	add("DDR4-C18-27", 10, ModuleSpec{Mfr: "C", Node: DDR4New, Date: "19-48", FreqMTs: 2400, TRCns: 45.75, SizeGB: 8, Chips: 8, PinWidth: 8, MinHCFirst: 52_500, VulnChips: -1})
	add("DDR4-C28-33", 6, ModuleSpec{Mfr: "C", Node: DDR4New, FreqMTs: 2666, TRCns: 46.5, SizeGB: 4, Chips: 8, PinWidth: 4, MinHCFirst: 40_000, VulnChips: -1})

	return ms
}

// DDR3Modules returns the 60 DDR3 modules of Table 8. VulnChips values
// are calibrated so the RowHammerable chip counts of Table 2 reproduce:
// Mfr A 24 (old) and 8 (new); Mfr B 0 and 44; Mfr C 0 and 96.
func DDR3Modules() []ModuleSpec {
	var ms []ModuleSpec
	add := func(id string, count int, m ModuleSpec) { ms = append(ms, expand(id, count, m)...) }

	// Manufacturer A.
	add("DDR3-A0", 1, ModuleSpec{Mfr: "A", Node: DDR3Old, Date: "10-19", FreqMTs: 1066, TRCns: 50.625, SizeGB: 1, Chips: 8, PinWidth: 8, MinHCFirst: 155_000, VulnChips: -1})
	add("DDR3-A1", 1, ModuleSpec{Mfr: "A", Node: DDR3Old, Date: "10-40", FreqMTs: 1333, TRCns: 49.5, SizeGB: 2, Chips: 8, PinWidth: 8})
	add("DDR3-A2-6", 5, ModuleSpec{Mfr: "A", Node: DDR3Old, Date: "12-11", FreqMTs: 1866, TRCns: 47.91, SizeGB: 2, Chips: 8, PinWidth: 8, MinHCFirst: 156_000, VulnChips: -1})
	add("DDR3-A7-9", 3, ModuleSpec{Mfr: "A", Node: DDR3Old, Date: "12-32", FreqMTs: 1600, TRCns: 48.75, SizeGB: 2, Chips: 8, PinWidth: 8, MinHCFirst: 69_200, VulnChips: -1})
	// Mfr A DDR3-new: only 8 of these chips flip below 150k (Table 2);
	// the first module contributes two, the rest one each.
	add("DDR3-A10", 1, ModuleSpec{Mfr: "A", Node: DDR3New, Date: "14-16", FreqMTs: 1600, TRCns: 48.75, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 85_000, VulnChips: 2})
	add("DDR3-A11-16", 6, ModuleSpec{Mfr: "A", Node: DDR3New, Date: "14-16", FreqMTs: 1600, TRCns: 48.75, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 85_000, VulnChips: 1})
	add("DDR3-A17-18", 2, ModuleSpec{Mfr: "A", Node: DDR3New, Date: "14-26", FreqMTs: 1600, TRCns: 48.75, SizeGB: 2, Chips: 4, PinWidth: 16, MinHCFirst: 160_000, VulnChips: 0})
	add("DDR3-A19", 1, ModuleSpec{Mfr: "A", Node: DDR3New, Date: "15-23", FreqMTs: 1600, TRCns: 48.75, SizeGB: 8, Chips: 16, PinWidth: 4, MinHCFirst: 155_000, VulnChips: 1})

	// Manufacturer B.
	add("DDR3-B0-1", 2, ModuleSpec{Mfr: "B", Node: DDR3Old, Date: "10-48", FreqMTs: 1333, TRCns: 49.5, SizeGB: 1, Chips: 8, PinWidth: 8})
	add("DDR3-B2-4", 3, ModuleSpec{Mfr: "B", Node: DDR3Old, Date: "11-42", FreqMTs: 1333, TRCns: 49.5, SizeGB: 2, Chips: 8, PinWidth: 8})
	add("DDR3-B5-6", 2, ModuleSpec{Mfr: "B", Node: DDR3Old, Date: "12-24", FreqMTs: 1600, TRCns: 48.75, SizeGB: 2, Chips: 8, PinWidth: 8, MinHCFirst: 157_000, VulnChips: -1})
	add("DDR3-B7-10", 4, ModuleSpec{Mfr: "B", Node: DDR3Old, Date: "13-51", FreqMTs: 1600, TRCns: 48.75, SizeGB: 4, Chips: 8, PinWidth: 8})
	// Mfr B DDR3-new: 44 of 52 chips are RowHammerable (Table 2).
	add("DDR3-B11-14", 4, ModuleSpec{Mfr: "B", Node: DDR3New, Date: "15-22", FreqMTs: 1600, TRCns: 50.625, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 33_500, VulnChips: 6})
	add("DDR3-B15-19", 5, ModuleSpec{Mfr: "B", Node: DDR3New, Date: "15-25", FreqMTs: 1600, TRCns: 48.75, SizeGB: 2, Chips: 4, PinWidth: 16, MinHCFirst: 22_400, VulnChips: -1})

	// Manufacturer C.
	add("DDR3-C0-6", 7, ModuleSpec{Mfr: "C", Node: DDR3Old, Date: "10-43", FreqMTs: 1333, TRCns: 49.125, SizeGB: 1, Chips: 4, PinWidth: 16, MinHCFirst: 155_000, VulnChips: -1})
	// Mfr C DDR3-new: 96 of 104 chips are RowHammerable (Table 2).
	add("DDR3-C7", 1, ModuleSpec{Mfr: "C", Node: DDR3New, Date: "15-04", FreqMTs: 1600, TRCns: 48.75, SizeGB: 4, Chips: 8, PinWidth: 8})
	add("DDR3-C8-12", 5, ModuleSpec{Mfr: "C", Node: DDR3New, Date: "15-46", FreqMTs: 1600, TRCns: 48.75, SizeGB: 2, Chips: 8, PinWidth: 8, MinHCFirst: 33_500, VulnChips: -1})
	add("DDR3-C13-19", 7, ModuleSpec{Mfr: "C", Node: DDR3New, Date: "17-03", FreqMTs: 1600, TRCns: 48.75, SizeGB: 4, Chips: 8, PinWidth: 8, MinHCFirst: 24_000, VulnChips: -1})

	return ms
}

// LPDDR4Modules returns 130 synthesized LPDDR4 modules matching Table 1's
// census (1x: 3×A, 45×B; 1y: 46×A, 36×C; 4 chips per module) and Table
// 4's per-configuration minimum HCfirst.
func LPDDR4Modules() []ModuleSpec {
	var ms []ModuleSpec
	add := func(id string, count int, m ModuleSpec) { ms = append(ms, expand(id, count, m)...) }

	spread := func(base float64, i, n int) float64 {
		// The weakest module carries the published minimum; later modules
		// step upward deterministically across a ~3x range.
		if i == 0 {
			return base
		}
		return base * (1 + 2.2*float64(i)/float64(n))
	}
	group := func(prefix, mfr string, node TypeNode, count int, minHC float64) {
		for i := 0; i < count; i++ {
			add(prefix+itoa2(i), 1, ModuleSpec{
				Mfr: mfr, Node: node, FreqMTs: 3200, TRCns: 60, SizeGB: 2,
				Chips: 4, PinWidth: 16,
				MinHCFirst: spread(minHC, i, count), VulnChips: -1,
			})
		}
	}
	group("LP4X-A", "A", LPDDR4x, 3, 43_200)
	group("LP4X-B", "B", LPDDR4x, 45, 16_800)
	group("LP4Y-A", "A", LPDDR4y, 46, 4_800)
	group("LP4Y-C", "C", LPDDR4y, 36, 9_600)
	return ms
}

func itoa2(i int) string {
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// AllModules returns the full 300-module population.
func AllModules() []ModuleSpec {
	var ms []ModuleSpec
	ms = append(ms, DDR3Modules()...)
	ms = append(ms, DDR4Modules()...)
	ms = append(ms, LPDDR4Modules()...)
	return ms
}
