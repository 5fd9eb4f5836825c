package dram

import "fmt"

// Timing holds the JEDEC timing parameters the simulator enforces, in
// memory-clock cycles, plus the clock period so they can be converted to
// wall time. The fields mirror the constraints Ramulator models for DDR4.
type Timing struct {
	TCKPS int64 // clock period in picoseconds

	BL int // burst length in clocks (BL8 on a DDR bus = 4 clocks)

	CL  int // CAS latency (read)
	CWL int // CAS write latency

	RCD int // ACT → RD/WR
	RP  int // PRE → ACT
	RAS int // ACT → PRE
	RC  int // ACT → ACT, same bank

	RRDS int // ACT → ACT, different bank group
	RRDL int // ACT → ACT, same bank group
	FAW  int // rolling window for four ACTs per rank

	CCDS int // RD→RD / WR→WR, different bank group
	CCDL int // RD→RD / WR→WR, same bank group

	RTP  int // RD → PRE
	WR   int // end of write burst → PRE (write recovery)
	WTRS int // end of write burst → RD, different bank group
	WTRL int // end of write burst → RD, same bank group
	RTW  int // RD issue → WR issue (bus turnaround)

	RFC        int   // REF → any, refresh cycle time
	REFI       int   // average interval between REF commands
	REFW       int64 // refresh window (all rows refreshed once), in clocks
	RowsPerREF int   // rows auto-refreshed per bank per REF command
}

// NsToClk converts nanoseconds to (rounded-up) clock cycles.
func (t Timing) NsToClk(ns float64) int {
	clk := ns * 1000 / float64(t.TCKPS)
	n := int(clk)
	if float64(n) < clk {
		n++
	}
	return n
}

// ClkToNs converts clock cycles to nanoseconds.
func (t Timing) ClkToNs(clk int64) float64 {
	return float64(clk) * float64(t.TCKPS) / 1000
}

// TRCNanos returns the row-cycle time in nanoseconds, the quantity the
// paper uses to bound achievable hammer rates (Section 4.3).
func (t Timing) TRCNanos() float64 { return t.ClkToNs(int64(t.RC)) }

// Validate checks basic consistency of the parameters.
func (t Timing) Validate() error {
	if t.TCKPS <= 0 {
		return fmt.Errorf("dram: clock period must be positive, got %d ps", t.TCKPS)
	}
	if t.RC < t.RAS+t.RP {
		return fmt.Errorf("dram: tRC (%d) < tRAS+tRP (%d)", t.RC, t.RAS+t.RP)
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"BL", t.BL}, {"CL", t.CL}, {"CWL", t.CWL}, {"RCD", t.RCD},
		{"RP", t.RP}, {"RAS", t.RAS}, {"RRDS", t.RRDS}, {"RRDL", t.RRDL},
		{"FAW", t.FAW}, {"CCDS", t.CCDS}, {"CCDL", t.CCDL}, {"RTP", t.RTP},
		{"WR", t.WR}, {"RFC", t.RFC}, {"REFI", t.REFI},
	} {
		if v.val <= 0 {
			return fmt.Errorf("dram: t%s must be positive, got %d", v.name, v.val)
		}
	}
	if t.REFW <= 0 {
		return fmt.Errorf("dram: tREFW must be positive, got %d", t.REFW)
	}
	if t.RowsPerREF <= 0 {
		return fmt.Errorf("dram: rows per REF must be positive, got %d", t.RowsPerREF)
	}
	return nil
}

// DDR4_2400 returns DDR4-2400R-like timings (tCK = 0.833 ns). The row
// cycle time matches the ~46 ns the paper lists for its DDR4 modules
// (Table 7), and is the configuration used for the Section 6 simulations.
func DDR4_2400(rowsPerBank int) Timing {
	t := Timing{
		TCKPS: 833,
		BL:    4,
		CL:    17,
		CWL:   12,
		RCD:   17,
		RP:    17,
		RAS:   39,
		RC:    56, // 46.6 ns
		RRDS:  4,
		RRDL:  6,
		FAW:   26,
		CCDS:  4,
		CCDL:  6,
		RTP:   9,
		WR:    18,
		WTRS:  3,
		WTRL:  9,
		RTW:   8,
		RFC:   421,  // 350 ns (8 Gb)
		REFI:  9363, // 7.8 µs
	}
	t.REFW = 64 * 1000 * 1000 * 1000 / t.TCKPS // 64 ms
	refsPerWindow := int(t.REFW / int64(t.REFI))
	t.RowsPerREF = (rowsPerBank + refsPerWindow - 1) / refsPerWindow
	if t.RowsPerREF < 1 {
		t.RowsPerREF = 1
	}
	return t
}

// DDR3_1600 returns DDR3-1600K-like timings (tCK = 1.25 ns), with
// tRC = 48.75 ns as in the paper's DDR3 modules (Table 8).
func DDR3_1600(rowsPerBank int) Timing {
	t := Timing{
		TCKPS: 1250,
		BL:    4,
		CL:    11,
		CWL:   8,
		RCD:   11,
		RP:    11,
		RAS:   28,
		RC:    39, // 48.75 ns
		RRDS:  5,
		RRDL:  5,
		FAW:   24,
		CCDS:  4,
		CCDL:  4,
		RTP:   6,
		WR:    12,
		WTRS:  6,
		WTRL:  6,
		RTW:   7,
		RFC:   208,  // 260 ns (4 Gb)
		REFI:  6240, // 7.8 µs
	}
	t.REFW = 64 * 1000 * 1000 * 1000 / t.TCKPS
	refsPerWindow := int(t.REFW / int64(t.REFI))
	t.RowsPerREF = (rowsPerBank + refsPerWindow - 1) / refsPerWindow
	if t.RowsPerREF < 1 {
		t.RowsPerREF = 1
	}
	return t
}

// LPDDR4_3200 returns LPDDR4-3200-like timings (tCK = 0.625 ns) with
// tRC = 60 ns as the paper states for LPDDR4 (Section 4.3).
func LPDDR4_3200(rowsPerBank int) Timing {
	t := Timing{
		TCKPS: 625,
		BL:    8, // BL16 on a DDR bus
		CL:    28,
		CWL:   14,
		RCD:   29,
		RP:    29,
		RAS:   67,
		RC:    96, // 60 ns
		RRDS:  10,
		RRDL:  10,
		FAW:   64,
		CCDS:  8,
		CCDL:  8,
		RTP:   12,
		WR:    29,
		WTRS:  16,
		WTRL:  16,
		RTW:   12,
		RFC:   448,  // 280 ns
		REFI:  6240, // 3.9 µs (per-bank refresh folded into all-bank here)
	}
	t.REFW = 32 * 1000 * 1000 * 1000 / t.TCKPS // 32 ms
	refsPerWindow := int(t.REFW / int64(t.REFI))
	t.RowsPerREF = (rowsPerBank + refsPerWindow - 1) / refsPerWindow
	if t.RowsPerREF < 1 {
		t.RowsPerREF = 1
	}
	return t
}

// TRCByType returns the activation cycle time in nanoseconds the paper
// quotes per DRAM type in Section 4.3: DDR3 52.5 ns, DDR4 50 ns,
// LPDDR4 60 ns. These bound the achievable hammer rate.
func TRCByType(typ Type) float64 {
	switch typ {
	case DDR3:
		return 52.5
	case DDR4:
		return 50.0
	case LPDDR4:
		return 60.0
	default:
		return 50.0
	}
}

// MaxHammersIn sets the paper's test-length bound: the largest number of
// double-sided hammers (one ACT to each of two aggressor rows) that fit in
// the given window for a DRAM type. The paper keeps the core test loop
// under 32 ms so retention failures cannot be confused with RowHammer bit
// flips.
func MaxHammersIn(typ Type, windowMs float64) int {
	perHammerNs := 2 * TRCByType(typ)
	return int(windowMs * 1e6 / perHammerNs)
}
