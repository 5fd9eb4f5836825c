package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

func testController(t *testing.T, mech mitigation.Mechanism) (*Controller, *dram.Channel) {
	t.Helper()
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Table6Config(), ch, mech)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, ch
}

func run(ctrl *Controller, cycles int) {
	for i := 0; i < cycles; i++ {
		ctrl.Tick()
	}
}

func TestReadCompletes(t *testing.T) {
	ctrl, _ := testController(t, nil)
	done := false
	if !ctrl.EnqueueRead(0, 0x10000, func() { done = true }) {
		t.Fatal("read rejected on empty queue")
	}
	run(ctrl, 200)
	if !done {
		t.Fatal("read never completed")
	}
	if ctrl.Stats.Reads != 1 || ctrl.Stats.DemandACTs != 1 {
		t.Errorf("stats = %+v", ctrl.Stats)
	}
}

func TestReadQueueCapacity(t *testing.T) {
	ctrl, _ := testController(t, nil)
	accepted := 0
	for i := 0; i < 100; i++ {
		if ctrl.EnqueueRead(0, int64(i)*1<<20, func() {}) {
			accepted++
		}
	}
	if accepted != Table6Config().ReadQueue {
		t.Errorf("accepted %d reads, want %d", accepted, Table6Config().ReadQueue)
	}
	if ctrl.Stats.ReadQueueFull == 0 {
		t.Error("queue-full counter not incremented")
	}
}

func TestWritesDrainEventually(t *testing.T) {
	ctrl, _ := testController(t, nil)
	for i := 0; i < 80; i++ {
		ctrl.EnqueueWrite(0, int64(i)*1<<14)
	}
	if ctrl.Stats.Writes != 80 {
		t.Fatalf("writes accepted = %d", ctrl.Stats.Writes)
	}
	run(ctrl, 20_000)
	if ctrl.writeQ.n != 0 {
		t.Errorf("%d writes still queued", ctrl.writeQ.n)
	}
	if ctrl.Stats.DemandACTs == 0 {
		t.Error("writes issued no activates")
	}
}

func TestWriteCoalescing(t *testing.T) {
	ctrl, _ := testController(t, nil)
	ctrl.EnqueueWrite(0, 0x4000)
	ctrl.EnqueueWrite(0, 0x4000)
	if ctrl.writeQ.n != 1 {
		t.Errorf("duplicate write not coalesced: %d", ctrl.writeQ.n)
	}
}

func TestReadAfterWriteForwarding(t *testing.T) {
	ctrl, _ := testController(t, nil)
	ctrl.EnqueueWrite(0, 0x8000)
	done := false
	if !ctrl.EnqueueRead(0, 0x8000, func() { done = true }) {
		t.Fatal("forwarded read rejected")
	}
	run(ctrl, 3)
	if !done {
		t.Error("forwarded read did not complete immediately")
	}
}

func TestRefreshIssuesAtTREFI(t *testing.T) {
	ctrl, ch := testController(t, nil)
	run(ctrl, int(ch.T.REFI)*3+100)
	if ctrl.Stats.REFs < 2 || ctrl.Stats.REFs > 4 {
		t.Errorf("REFs = %d after 3×tREFI, want ≈3", ctrl.Stats.REFs)
	}
}

func TestIncreasedRefreshMultipliesREFs(t *testing.T) {
	geo := dram.Table6Geometry()
	tm := dram.DDR4_2400(geo.Rows)
	mech, err := mitigation.NewIncreasedRefresh(mitigation.Params{
		HCFirst: 64_000, Rows: geo.Rows, Banks: geo.Banks(),
		TRC: int64(tm.RC), TREFI: int64(tm.REFI), TREFW: tm.REFW,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, ch := testController(t, mech)
	cycles := int(ch.T.REFI) * 4
	run(ctrl, cycles)
	base := int64(cycles) / int64(ch.T.REFI)
	if ctrl.Stats.REFs < 4*base {
		t.Errorf("REFs = %d, want ≥ %d (multiplier %.0f)",
			ctrl.Stats.REFs, 4*base, mech.RefreshMultiplier())
	}
}

// hammerMech requests a victim refresh on every ACT, for plumbing tests.
type hammerMech struct{ victims int }

func (h *hammerMech) Name() string { return "test" }
func (h *hammerMech) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	if fromMitigation {
		return nil
	}
	h.victims++
	return []int{row + 1}
}
func (h *hammerMech) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int { return nil }
func (h *hammerMech) RefreshMultiplier() float64                                    { return 1 }

func TestMitigationRefreshPlumbing(t *testing.T) {
	mech := &hammerMech{}
	ctrl, _ := testController(t, mech)
	ctrl.EnqueueRead(0, 0x100000, func() {})
	run(ctrl, 500)
	if mech.victims == 0 {
		t.Fatal("mechanism never observed the demand ACT")
	}
	if ctrl.Stats.MitigationACTs == 0 {
		t.Fatal("victim refresh never issued")
	}
	if ctrl.Stats.MitigationBusyCycles == 0 {
		t.Error("mitigation busy cycles not accounted")
	}
}

func TestExternalACTObserver(t *testing.T) {
	ctrl, _ := testController(t, nil)
	var rows []int
	ctrl.OnACT(func(rank, bank, row int, cycle int64) { rows = append(rows, row) })
	ctrl.EnqueueRead(0, 0x30000, func() {})
	run(ctrl, 300)
	if len(rows) == 0 {
		t.Fatal("external observer never fired")
	}
}

func TestExternalRefreshObserver(t *testing.T) {
	ctrl, ch := testController(t, nil)
	covered := 0
	ctrl.OnRefresh(func(rank, bank, rowStart, rowCount int, cycle int64) {
		covered += rowCount
	})
	run(ctrl, int(ch.T.REFI)*3)
	if covered == 0 {
		t.Fatal("external refresh observer never fired")
	}
	// Every REF covers RowsPerREF rows in each bank.
	wantPerREF := ch.T.RowsPerREF * ch.Geo.Banks()
	if covered%wantPerREF != 0 {
		t.Errorf("covered %d rows, want a multiple of %d", covered, wantPerREF)
	}
}

// blockRow throttles ACTs to one row forever.
type blockRow struct {
	mitigation.None
	bank, row int
	denials   int64
	actReqs   []int // requesters attributed via OnRequesterACT
}

func (b *blockRow) ActAllowed(requester, bank, row int, cycle int64) bool {
	if bank == b.bank && row == b.row {
		b.denials++
		return false
	}
	return true
}

func (b *blockRow) AdmitRequest(requester, bank, row int, queueLoad float64, cycle int64) bool {
	return true
}

func (b *blockRow) OnRequesterACT(requester, bank, row int, cycle int64) {
	b.actReqs = append(b.actReqs, requester)
}

func TestThrottledRowDoesNotStallOthers(t *testing.T) {
	ctrl, ch := testController(t, &blockRow{bank: 0, row: 100})
	mapper, err := dram.NewAddressMapper(ch.Geo)
	if err != nil {
		t.Fatal(err)
	}
	blockedDone, otherDone := false, false
	// The blacklisted request is the oldest; a younger request in another
	// bank must still progress past it.
	ctrl.EnqueueRead(0, mapper.AddressOf(dram.Address{Bank: 0, Row: 100}), func() { blockedDone = true })
	ctrl.EnqueueRead(0, mapper.AddressOf(dram.Address{Bank: 5, Row: 300}), func() { otherDone = true })
	run(ctrl, 2000)
	if blockedDone {
		t.Error("permanently throttled request completed")
	}
	if !otherDone {
		t.Fatal("younger request starved behind a throttled one")
	}
	if ctrl.Stats.ThrottleStallCycles == 0 {
		t.Error("throttle stall cycles not counted")
	}
}

func TestStarvationBounded(t *testing.T) {
	// A stream of row hits to one bank must not starve a conflicting
	// request in the same bank forever.
	ctrl, ch := testController(t, nil)
	mapper, err := dram.NewAddressMapper(ch.Geo)
	if err != nil {
		t.Fatal(err)
	}
	victimAddr := mapper.AddressOf(dram.Address{Bank: 0, Row: 100})
	hitAddr := func(col int) int64 {
		return mapper.AddressOf(dram.Address{Bank: 0, Row: 200, Col: col % ch.Geo.Columns})
	}
	// Open row 200 and keep hitting it while the row-100 request waits.
	ctrl.EnqueueRead(0, hitAddr(0), func() {})
	run(ctrl, 100)
	done := false
	ctrl.EnqueueRead(0, victimAddr, func() { done = true })
	col := 1
	for i := 0; i < 5000 && !done; i++ {
		if ctrl.PendingReads() < 32 {
			ctrl.EnqueueRead(0, hitAddr(col), func() {})
			col++
		}
		ctrl.Tick()
	}
	if !done {
		t.Fatal("row-conflict request starved behind a row-hit stream")
	}
}

func TestPerRequesterStatsAndACTAttribution(t *testing.T) {
	mech := &blockRow{bank: -1, row: -1} // throttles nothing, records ACT sources
	ctrl, ch := testController(t, mech)
	mapper, err := dram.NewAddressMapper(ch.Geo)
	if err != nil {
		t.Fatal(err)
	}
	// Two requesters, distinct banks so both need an ACT.
	ctrl.EnqueueRead(0, mapper.AddressOf(dram.Address{Bank: 0, Row: 10}), func() {})
	ctrl.EnqueueRead(2, mapper.AddressOf(dram.Address{Bank: 3, Row: 20}), func() {})
	run(ctrl, 500)
	if len(ctrl.Stats.PerRequester) < 3 {
		t.Fatalf("per-requester stats = %d entries, want ≥3", len(ctrl.Stats.PerRequester))
	}
	for _, id := range []int{0, 2} {
		rs := ctrl.Stats.PerRequester[id]
		if rs.Reads != 1 || rs.ServedReads != 1 {
			t.Errorf("requester %d stats = %+v, want 1 read accepted and served", id, rs)
		}
	}
	if rs := ctrl.Stats.PerRequester[1]; rs.Reads != 0 {
		t.Errorf("idle requester accrued reads: %+v", rs)
	}
	// The throttler's per-source hook saw both demand ACTs with the right
	// attribution.
	want := map[int]bool{0: true, 2: true}
	for _, r := range mech.actReqs {
		delete(want, r)
	}
	if len(want) != 0 {
		t.Errorf("OnRequesterACT missed sources %v (saw %v)", want, mech.actReqs)
	}
}

func TestPerRequesterBusOccupancy(t *testing.T) {
	ctrl, ch := testController(t, nil)
	mapper, err := dram.NewAddressMapper(ch.Geo)
	if err != nil {
		t.Fatal(err)
	}
	// Requester 0 issues many reads across rows (ACT + burst each);
	// requester 1 issues a single read. The heavy source must own the
	// overwhelming bus share.
	served := 0
	pending := 0
	for i := 0; i < 40; i++ {
		ctrl.EnqueueRead(0, mapper.AddressOf(dram.Address{Bank: i % 4, Row: 10 + i}), func() { served++ })
		pending++
	}
	ctrl.EnqueueRead(1, mapper.AddressOf(dram.Address{Bank: 5, Row: 7}), func() { served++ })
	pending++
	for i := 0; i < 50_000 && served < pending; i++ {
		ctrl.Tick()
	}
	if served < pending {
		t.Fatalf("served %d/%d reads", served, pending)
	}
	heavy := ctrl.Stats.PerRequester[0]
	light := ctrl.Stats.PerRequester[1]
	if heavy.BusBusyCycles == 0 || light.BusBusyCycles == 0 {
		t.Fatalf("bus occupancy not attributed: heavy=%d light=%d",
			heavy.BusBusyCycles, light.BusBusyCycles)
	}
	// Each served read burns at least the burst; each row miss adds tRC.
	if min := int64(ch.T.BL); light.BusBusyCycles < min {
		t.Errorf("light requester bus cycles %d below one burst (%d)", light.BusBusyCycles, min)
	}
	if heavy.BusBusyCycles <= 10*light.BusBusyCycles {
		t.Errorf("heavy requester share not dominant: heavy=%d light=%d",
			heavy.BusBusyCycles, light.BusBusyCycles)
	}
	hs, ls := ctrl.Stats.BusSharePct(0), ctrl.Stats.BusSharePct(1)
	if hs <= ls || hs+ls > 100.0001 {
		t.Errorf("BusSharePct: heavy=%.1f light=%.1f", hs, ls)
	}
	if ctrl.Stats.BusSharePct(99) != 0 {
		t.Error("unknown requester has nonzero bus share")
	}
}

// blissConfig returns a Table 6 controller with the fairness scheduler on
// and a tiny streak so tests trigger blacklisting quickly.
func blissConfig() Config {
	cfg := Table6Config()
	cfg.BLISS = true
	cfg.BLISSStreak = 3
	cfg.BLISSClearCycles = 5_000
	return cfg
}

func TestBLISSBlacklistsStreakAndDemotes(t *testing.T) {
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(blissConfig(), ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		t.Fatal(err)
	}
	hitAddr := func(col int) int64 {
		return mapper.AddressOf(dram.Address{Bank: 0, Row: 200, Col: col % geo.Columns})
	}
	// Requester 0 streams row hits; requester 1 wants a conflicting row in
	// the same bank. BLISS blacklists the streamer after three consecutive
	// services, and once the conflict starves past the cap its bank is
	// claimed from the demoted pass too, so the stream cannot extend the
	// tRTP horizon forever.
	ctrl.EnqueueRead(0, hitAddr(0), func() {})
	run(ctrl, 100)
	served1 := int64(-1)
	start := ctrl.Cycle()
	ctrl.EnqueueRead(1, mapper.AddressOf(dram.Address{Bank: 0, Row: 100}), func() { served1 = ctrl.Cycle() })
	col := 1
	for i := 0; i < 4000 && served1 < 0; i++ {
		if ctrl.PendingReads() < 16 {
			ctrl.EnqueueRead(0, hitAddr(col), func() {})
			col++
		}
		ctrl.Tick()
	}
	if served1 < 0 {
		t.Fatal("conflicting request never served under BLISS")
	}
	if ctrl.Stats.BLISSBlacklists == 0 {
		t.Error("streaming requester never blacklisted")
	}
	if rs := ctrl.Stats.PerRequester[0]; rs.Blacklistings == 0 {
		t.Error("blacklisting not attributed to the streaming requester")
	}
	if rs := ctrl.Stats.PerRequester[1]; rs.Blacklistings != 0 {
		t.Errorf("victim requester blacklisted: %+v", rs)
	}
	if wait := served1 - start; wait > 2*starveLimit {
		t.Errorf("conflict waited %d cycles behind a demoted stream (cap %d)", wait, starveLimit)
	}
}

func TestBLISSClearingForgives(t *testing.T) {
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(blissConfig(), ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		t.Fatal(err)
	}
	// Keep one requester streaming across several clearing intervals: each
	// interval forgives the blacklist, the streak rebuilds, and the
	// requester is blacklisted again.
	col := 0
	for i := 0; i < 20_000; i++ {
		if ctrl.PendingReads() < 16 {
			ctrl.EnqueueRead(0, mapper.AddressOf(dram.Address{Bank: 0, Row: 50, Col: col % geo.Columns}), func() {})
			col++
		}
		ctrl.Tick()
	}
	if got := ctrl.Stats.PerRequester[0].Blacklistings; got < 2 {
		t.Errorf("blacklistings = %d across clearing intervals, want ≥2 (clearing never forgave)", got)
	}
}
