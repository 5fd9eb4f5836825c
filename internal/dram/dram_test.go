package dram

import (
	"testing"
	"testing/quick"
)

func testChannel(t *testing.T) *Channel {
	t.Helper()
	geo := Table6Geometry()
	ch, err := NewChannel(geo, DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestGeometryValidate(t *testing.T) {
	good := Table6Geometry()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Banks() != 16 || good.TotalBanks() != 16 {
		t.Errorf("banks = %d", good.Banks())
	}
	if good.RowBytes() != 8192 {
		t.Errorf("row bytes = %d, want 8192", good.RowBytes())
	}
	for _, mutate := range []func(*Geometry){
		func(g *Geometry) { g.Ranks = 0 },
		func(g *Geometry) { g.BankGroups = 0 },
		func(g *Geometry) { g.BanksPerGroup = -1 },
		func(g *Geometry) { g.Rows = 0 },
		func(g *Geometry) { g.Columns = 0 },
		func(g *Geometry) { g.LineBytes = 0 },
	} {
		g := good
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("invalid geometry accepted: %+v", g)
		}
	}
}

func TestTimingValidateAndConversions(t *testing.T) {
	for _, tm := range []Timing{DDR4_2400(16384), DDR3_1600(16384), LPDDR4_3200(16384)} {
		if err := tm.Validate(); err != nil {
			t.Errorf("timing invalid: %v", err)
		}
		if tm.RC < tm.RAS+tm.RP {
			t.Error("tRC < tRAS+tRP")
		}
	}
	tm := DDR4_2400(16384)
	if got := tm.TRCNanos(); got < 45 || got > 48 {
		t.Errorf("DDR4 tRC = %vns, want ≈46.6", got)
	}
	if tm.NsToClk(tm.ClkToNs(100)) != 100 {
		t.Error("clk↔ns round trip failed")
	}
}

func TestTRCByTypeMatchesPaper(t *testing.T) {
	// Section 4.3: DDR3 52.5 ns, DDR4 50 ns, LPDDR4 60 ns.
	if TRCByType(DDR3) != 52.5 || TRCByType(DDR4) != 50.0 || TRCByType(LPDDR4) != 60.0 {
		t.Error("per-type tRC mismatch")
	}
	// 32 ms bound: DDR4 allows 32e6/(2×50) = 320k hammers.
	if got := MaxHammersIn(DDR4, 32); got != 320_000 {
		t.Errorf("MaxHammersIn(DDR4) = %d, want 320000", got)
	}
}

func TestActivateReadPrechargeSequence(t *testing.T) {
	ch := testChannel(t)
	tm := ch.T
	cycle := int64(100)

	if !ch.CanIssue(CmdACT, 0, 0, 42, cycle) {
		t.Fatal("ACT to idle bank rejected")
	}
	ch.Issue(CmdACT, 0, 0, 42, cycle)
	if ch.OpenRow(0, 0) != 42 {
		t.Fatal("row not open after ACT")
	}

	// RD must wait tRCD.
	if ch.CanIssue(CmdRD, 0, 0, 42, cycle+int64(tm.RCD)-1) {
		t.Error("RD accepted before tRCD")
	}
	rdCycle := cycle + int64(tm.RCD)
	if !ch.CanIssue(CmdRD, 0, 0, 42, rdCycle) {
		t.Fatal("RD rejected at tRCD")
	}
	ready := ch.Issue(CmdRD, 0, 0, 42, rdCycle)
	if want := rdCycle + int64(tm.CL) + int64(tm.BL); ready != want {
		t.Errorf("data ready at %d, want %d", ready, want)
	}

	// RD to the wrong row must be rejected.
	if ch.CanIssue(CmdRD, 0, 0, 43, rdCycle+10) {
		t.Error("RD to closed row accepted")
	}

	// PRE must respect tRAS.
	if ch.CanIssue(CmdPRE, 0, 0, 0, cycle+int64(tm.RAS)-1) {
		t.Error("PRE accepted before tRAS")
	}
	preCycle := cycle + int64(tm.RAS)
	if !ch.CanIssue(CmdPRE, 0, 0, 0, preCycle) {
		t.Fatal("PRE rejected at tRAS")
	}
	ch.Issue(CmdPRE, 0, 0, 0, preCycle)
	if ch.OpenRow(0, 0) != -1 {
		t.Fatal("row still open after PRE")
	}

	// Next ACT must respect both tRC and tRP.
	if ch.CanIssue(CmdACT, 0, 0, 7, preCycle+int64(tm.RP)-1) {
		t.Error("ACT accepted before tRP")
	}
	if !ch.CanIssue(CmdACT, 0, 0, 7, cycle+int64(tm.RC)) {
		t.Error("ACT rejected at tRC")
	}
}

func TestTFAWLimitsActivates(t *testing.T) {
	ch := testChannel(t)
	tm := ch.T
	// Issue four ACTs to different bank groups as fast as tRRD_S allows.
	cycle := int64(1000)
	for i := 0; i < 4; i++ {
		bank := i * ch.Geo.BanksPerGroup // one per bank group
		for !ch.CanIssue(CmdACT, 0, bank, 1, cycle) {
			cycle++
		}
		ch.Issue(CmdACT, 0, bank, 1, cycle)
	}
	// A fifth ACT (same rank, any bank — use group 0 bank 1) must wait
	// for the tFAW window from the first ACT.
	fifth := int64(1000) + int64(tm.RRDS)
	bank5 := 1
	if ch.CanIssue(CmdACT, 0, bank5, 1, fifth) {
		t.Error("fifth ACT accepted inside tFAW window")
	}
	if !ch.CanIssue(CmdACT, 0, bank5, 1, 1000+int64(tm.FAW)) {
		t.Error("fifth ACT rejected after tFAW")
	}
}

// The channel publishes nothing itself: whoever issues a REF reads the
// rotation start through RefreshPointer first (memctrl's Observe passes it
// on), so this test observes the rotation the same way.
func TestRefreshRotationAndObserver(t *testing.T) {
	geo := Table6Geometry()
	ch, err := NewChannel(geo, DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]int{}
	cycle := int64(10)
	refs := geo.Rows / ch.T.RowsPerREF
	for i := 0; i < refs; i++ {
		if !ch.CanIssue(CmdREF, 0, 0, 0, cycle) {
			t.Fatalf("REF %d rejected", i)
		}
		rowStart := ch.RefreshPointer(0)
		for r := rowStart; r < rowStart+ch.T.RowsPerREF; r++ {
			covered[r%geo.Rows]++
		}
		ch.Issue(CmdREF, 0, 0, 0, cycle)
		cycle += int64(ch.T.RFC) + 1
	}
	if len(covered) != geo.Rows {
		t.Fatalf("refresh rotation covered %d of %d rows", len(covered), geo.Rows)
	}
	if got := ch.RefreshPointer(0); got != 0 {
		t.Errorf("rotation did not wrap to row 0 after a full pass: pointer %d", got)
	}
	// ACT blocked during tRFC.
	ch2 := testChannel(t)
	ch2.Issue(CmdREF, 0, 0, 0, 5)
	if ch2.CanIssue(CmdACT, 0, 3, 1, 5+int64(ch2.T.RFC)-1) {
		t.Error("ACT accepted during tRFC")
	}
}

func TestREFRequiresClosedBanks(t *testing.T) {
	ch := testChannel(t)
	ch.Issue(CmdACT, 0, 2, 9, 10)
	if ch.CanIssue(CmdREF, 0, 0, 0, 20) {
		t.Error("REF accepted with an open bank")
	}
}

func TestIllegalIssuePanics(t *testing.T) {
	ch := testChannel(t)
	defer func() {
		if recover() == nil {
			t.Error("illegal Issue did not panic")
		}
	}()
	ch.Issue(CmdRD, 0, 0, 5, 1) // no row open
}

func TestAddressMapRoundTrip(t *testing.T) {
	wide := Table6Geometry()
	wide.BankGroups, wide.BanksPerGroup = 8, 16
	for _, geo := range []Geometry{Table6Geometry(), wide} {
		m, err := NewAddressMapper(geo)
		if err != nil {
			t.Fatal(err)
		}
		// Property: AddressOf inverts Map for any in-range coordinates.
		f := func(bankRaw, rowRaw, colRaw uint) bool {
			a := Address{
				Rank: 0,
				Bank: int(bankRaw % uint(geo.Banks())),
				Row:  int(rowRaw % uint(geo.Rows)),
				Col:  int(colRaw % uint(geo.Columns)),
			}
			return m.Map(m.AddressOf(a)) == a
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%d banks: %v", geo.Banks(), err)
		}
	}
}

func TestAddressMapSequentialLinesShareRow(t *testing.T) {
	geo := Table6Geometry()
	m, err := NewAddressMapper(geo)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Map(0)
	for i := 1; i < geo.Columns; i++ {
		a := m.Map(int64(i * geo.LineBytes))
		if a.Row != base.Row || a.Bank != base.Bank {
			t.Fatalf("line %d left the row buffer: %v vs %v", i, a, base)
		}
		if a.Col != i {
			t.Fatalf("line %d col = %d", i, a.Col)
		}
	}
	// The next line must move to another bank, not the next row.
	next := m.Map(int64(geo.Columns * geo.LineBytes))
	if next.Bank == base.Bank && next.Row == base.Row {
		t.Error("row crossing did not rotate banks")
	}
}

func TestBusConflictBlocksOverlappingBursts(t *testing.T) {
	ch := testChannel(t)
	tm := ch.T
	ch.Issue(CmdACT, 0, 0, 1, 0)
	ch.Issue(CmdACT, 0, ch.Geo.BanksPerGroup, 1, int64(tm.RRDS)) // other group
	c := int64(tm.RCD) + int64(tm.RRDS)
	ch.Issue(CmdRD, 0, 0, 1, c)
	// An immediate RD on the other bank would overlap the data burst.
	if ch.CanIssue(CmdRD, 0, ch.Geo.BanksPerGroup, 1, c+1) {
		t.Error("overlapping burst accepted")
	}
	if !ch.CanIssue(CmdRD, 0, ch.Geo.BanksPerGroup, 1, c+int64(tm.BL)) {
		t.Error("post-burst RD rejected")
	}
}
