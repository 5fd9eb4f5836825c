package mitigation

import (
	"slices"
	"testing"

	"repro/internal/dram"
)

func testParams(hcFirst int) Params {
	t := dram.DDR4_2400(16384)
	return Params{
		HCFirst: hcFirst,
		Rows:    16384,
		Banks:   16,
		TRC:     int64(t.RC),
		TREFI:   int64(t.REFI),
		TREFW:   t.REFW,
		Seed:    1,
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams(10_000)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Params){
		func(p *Params) { p.HCFirst = 0 },
		func(p *Params) { p.Rows = 0 },
		func(p *Params) { p.Banks = 0 },
		func(p *Params) { p.TRC = 0 },
	} {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
}

func TestNoneIsInert(t *testing.T) {
	n := NewNone()
	if got := n.OnActivate(0, 5, 1, false); got != nil {
		t.Errorf("None refreshed %v", got)
	}
	if n.RefreshMultiplier() != 1 {
		t.Error("None multiplier != 1")
	}
}

func TestIncreasedRefreshScaling(t *testing.T) {
	weak, err := NewIncreasedRefresh(testParams(32_000))
	if err != nil {
		t.Fatal(err)
	}
	strong, err := NewIncreasedRefresh(testParams(128_000))
	if err != nil {
		t.Fatal(err)
	}
	if weak.RefreshMultiplier() <= strong.RefreshMultiplier() {
		t.Errorf("multiplier must grow as HCfirst shrinks: %v vs %v",
			weak.RefreshMultiplier(), strong.RefreshMultiplier())
	}
	// tREFW' = HCfirst×tRC: at 32k and tRC=56 cycles the window is
	// 1.79M cycles vs the nominal 76.8G ps / 833 ps ≈ 76.8M cycles: ≈43×.
	if m := weak.RefreshMultiplier(); m < 35 || m > 55 {
		t.Errorf("multiplier at 32k = %v, want ≈43", m)
	}
	if !weak.Viable() {
		t.Error("32k must be viable (the paper's bound)")
	}
	below, err := NewIncreasedRefresh(testParams(16_000))
	if err != nil {
		t.Fatal(err)
	}
	if below.Viable() {
		t.Error("16k must not be viable")
	}
}

func TestPARAProbabilityScaling(t *testing.T) {
	t4800, err := NewPARA(testParams(4_800), 833)
	if err != nil {
		t.Fatal(err)
	}
	t128, err := NewPARA(testParams(128), 833)
	if err != nil {
		t.Fatal(err)
	}
	if !(t128.prob > t4800.prob) {
		t.Errorf("p must grow as HCfirst shrinks: %v vs %v", t128.prob, t4800.prob)
	}
	// Section 6.2.2 context: p around 2% protects HCfirst≈5k chips.
	if p := t4800.prob; p < 0.005 || p > 0.08 {
		t.Errorf("p(4.8k) = %v, want a few percent", p)
	}
	if p := t128.prob; p < 0.3 || p > 1 {
		t.Errorf("p(128) = %v, want large", p)
	}
	// Statistical check: triggers per ACT ≈ p.
	hits := 0
	n := 200_000
	for i := 0; i < n; i++ {
		if len(t4800.OnActivate(0, 100, int64(i), false)) > 0 {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.8*t4800.prob || got > 1.2*t4800.prob {
		t.Errorf("observed trigger rate %v, want ≈%v", got, t4800.prob)
	}
}

func TestPARARefreshesAdjacentRows(t *testing.T) {
	m, err := NewPARA(testParams(64), 833)
	if err != nil {
		t.Fatal(err)
	}
	m.prob = 1 // force triggers
	for i := 0; i < 100; i++ {
		vs := m.OnActivate(0, 500, int64(i), false)
		if len(vs) != 1 || (vs[0] != 499 && vs[0] != 501) {
			t.Fatalf("victims = %v, want one of 499/501", vs)
		}
	}
	// Edge rows clamp.
	if vs := m.OnActivate(0, 0, 0, false); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("edge victims = %v", vs)
	}
}

func TestTWiCeRefreshesAtThreshold(t *testing.T) {
	p := testParams(32_000)
	m, err := NewTWiCe(p, false)
	if err != nil {
		t.Fatal(err)
	}
	// tRH = HCfirst/4 hammers; each single-sided ACT adds 0.5.
	acts := int(m.tRH*2) - 1
	for i := 0; i < acts; i++ {
		if got := m.OnActivate(3, 100, int64(i), false); len(got) != 0 {
			t.Fatalf("premature refresh after %d ACTs: %v", i, got)
		}
	}
	if tableEntries(m) == 0 {
		t.Error("table empty mid-attack")
	}
	got := m.OnActivate(3, 100, int64(acts), false)
	want := false
	for _, v := range got {
		if v == 99 || v == 101 {
			want = true
		}
	}
	if !want {
		t.Fatalf("no victim refresh at threshold: %v", got)
	}
}

func TestTWiCePruningDropsColdRows(t *testing.T) {
	m, err := NewTWiCe(testParams(64_000), false)
	if err != nil {
		t.Fatal(err)
	}
	m.OnActivate(0, 10, 1, false) // rows 9 and 11 enter with 0.5 acts
	if tableEntries(m) != 2 {
		t.Fatalf("entries = %d, want 2", tableEntries(m))
	}
	// One pruning pass: act rate 0.5 per lifetime 1 is far below
	// pruneTh = tRH/8192 ≈ 1.95, so both entries are dropped.
	m.OnAutoRefresh(0, 5000, 2, 100)
	if tableEntries(m) != 0 {
		t.Fatalf("entries after prune = %d, want 0", tableEntries(m))
	}
}

// tableEntries reports TWiCe's tracking-table occupancy over all banks.
func tableEntries(m *TWiCe) int {
	n := 0
	for _, tbl := range m.tables {
		n += len(tbl)
	}
	return n
}

func TestTWiCeViability(t *testing.T) {
	real32k, _ := NewTWiCe(testParams(32_000), false)
	if !real32k.Viable() {
		t.Error("TWiCe at 32k must be viable")
	}
	real16k, _ := NewTWiCe(testParams(16_000), false)
	if real16k.Viable() {
		t.Error("TWiCe at 16k must not be viable")
	}
	ideal16k, _ := NewTWiCe(testParams(16_000), true)
	if !ideal16k.Viable() {
		t.Error("TWiCe-ideal must always be viable")
	}
	if ideal16k.Name() != "TWiCe-ideal" || real16k.Name() != "TWiCe" {
		t.Error("names wrong")
	}
}

func TestIdealTriggersExactlyBeforeHCFirst(t *testing.T) {
	m, err := NewIdeal(testParams(1_000))
	if err != nil {
		t.Fatal(err)
	}
	// Alternate the two aggressors like a double-sided attack; the victim
	// accumulates 0.5 per ACT and must be refreshed just before 999.
	victim := 200
	total := 0
	var firstTrigger int
	for i := 0; i < 4000; i++ {
		agg := victim - 1
		if i%2 == 1 {
			agg = victim + 1
		}
		for _, v := range m.OnActivate(0, agg, int64(i), false) {
			if v == victim {
				total++
				if total == 1 {
					firstTrigger = i
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("ideal mechanism never refreshed the victim")
	}
	// 999 hammers ≈ 1998 ACTs.
	if firstTrigger < 1995 || firstTrigger > 2000 {
		t.Errorf("first refresh at ACT %d, want ≈1997", firstTrigger)
	}
}

func TestIdealActivationResetsOwnCounter(t *testing.T) {
	m, err := NewIdeal(testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	// Hammer row 50's neighbour 49 a lot, but activate 50 itself midway:
	// the accumulated damage must reset.
	for i := 0; i < 150; i++ {
		m.OnActivate(0, 49, int64(i), false)
	}
	m.OnActivate(0, 50, 150, false) // victim itself activated
	triggers := 0
	for i := 0; i < 90; i++ {
		for _, v := range m.OnActivate(0, 49, int64(151+i), false) {
			if v == 50 {
				triggers++
			}
		}
	}
	if triggers != 0 {
		t.Errorf("counter did not reset on own activation: %d triggers", triggers)
	}
}

func TestIdealAutoRefreshResets(t *testing.T) {
	m, err := NewIdeal(testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 190; i++ {
		m.OnActivate(0, 49, int64(i), false) // row 50 at 95 hammers
	}
	m.OnAutoRefresh(0, 0, 16384, 200) // full-bank rotation reset
	for i := 0; i < 8; i++ {
		if vs := m.OnActivate(0, 49, int64(201+i), false); len(vs) != 0 {
			t.Fatalf("refresh did not reset counters: %v", vs)
		}
	}
}

func TestProHITTracksAndRefreshesHotRows(t *testing.T) {
	m, err := NewProHIT(testParams(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Viable() {
		t.Error("ProHIT at 2000 must be viable")
	}
	// Hammer row 100 heavily: victims 99/101 should climb into the hot
	// table; a REF must then refresh one of them.
	refreshed := map[int]bool{}
	for i := 0; i < 4000; i++ {
		m.OnActivate(0, 100, int64(i), false)
		if i%500 == 499 {
			for _, v := range m.OnAutoRefresh(0, 0, 2, int64(i)) {
				refreshed[v] = true
			}
		}
	}
	if !refreshed[99] && !refreshed[101] {
		t.Errorf("hot victims never refreshed: %v", refreshed)
	}
	off, _ := NewProHIT(testParams(4_800))
	if off.Viable() {
		t.Error("ProHIT away from 2000 must not be viable")
	}
}

func TestClampNeighborsEdgeRows(t *testing.T) {
	const rows = 100
	cases := []struct {
		row  int
		want []int
	}{
		{0, []int{1}},         // bottom edge: no lower neighbor
		{rows - 1, []int{98}}, // top edge: no upper neighbor
		{1, []int{0, 2}},      // next to the edge: both exist
		{50, []int{49, 51}},   // interior
		{rows - 2, []int{97, 99}},
	}
	for _, c := range cases {
		ns, n := neighbors(c.row, rows)
		if got := ns[:n]; !slices.Equal(got, c.want) {
			t.Errorf("neighbors(%d) = %v, want %v", c.row, got, c.want)
		}
	}
	// A one-row bank has no neighbors at all.
	if _, n := neighbors(0, 1); n != 0 {
		t.Errorf("neighbors(0, 1) found %d, want none", n)
	}
}

func TestViability(t *testing.T) {
	p := testParams(32_000)
	para, _ := NewPARA(p, 833)
	incr, _ := NewIncreasedRefresh(p)
	incrLow, _ := NewIncreasedRefresh(testParams(2_000))
	twice, _ := NewTWiCe(p, false)
	twiceLow, _ := NewTWiCe(testParams(2_000), false)
	twiceIdeal, _ := NewTWiCe(testParams(2_000), true)
	prohit, _ := NewProHIT(testParams(2_000))
	prohitOff, _ := NewProHIT(p)
	mrloc, _ := NewMRLoc(testParams(2_000))
	mrlocOff, _ := NewMRLoc(p)
	ideal, _ := NewIdeal(p)
	bh, _ := NewBlockHammer(p)
	trr, _ := NewTRR(p)

	cases := []struct {
		name   string
		v      Viability
		viable bool
	}{
		{"None", NewNone(), true},
		{"PARA", para, true},
		{"IncreasedRefresh@32k", incr, true},
		{"IncreasedRefresh@2k", incrLow, false},
		{"TWiCe@32k", twice, true},
		{"TWiCe@2k", twiceLow, false},
		{"TWiCe-ideal@2k", twiceIdeal, true},
		{"ProHIT@2k", prohit, true},
		{"ProHIT@32k", prohitOff, false},
		{"MRLoc@2k", mrloc, true},
		{"MRLoc@32k", mrlocOff, false},
		{"Ideal", ideal, true},
		{"BlockHammer", bh, true},
		{"TRR", trr, true},
	}
	for _, c := range cases {
		if c.v.Viable() != c.viable {
			t.Errorf("%s: Viable() = %v, want %v", c.name, c.v.Viable(), c.viable)
		}
	}
}

func TestBlockHammerBlacklistsAndThrottles(t *testing.T) {
	m, err := NewBlockHammer(testParams(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if m.RefreshMultiplier() != 1 {
		t.Error("BlockHammer must not change the refresh rate")
	}
	// Below the blacklist threshold nothing is throttled, and no victim
	// refreshes are ever requested.
	burst := int(m.nbl) - 1
	for i := 0; i < burst; i++ {
		if !m.ActAllowed(0, 0, 700, int64(i)) {
			t.Fatalf("throttled after only %d ACTs (NBL=%.0f)", i, m.nbl)
		}
		if got := m.OnActivate(0, 700, int64(i), false); got != nil {
			t.Fatalf("BlockHammer refreshed victims %v", got)
		}
	}
	// Past the threshold the row must wait out the spacing interval.
	m.OnActivate(0, 700, int64(burst), false)
	if m.ActAllowed(0, 0, 700, int64(burst)+1) {
		t.Error("blacklisted row allowed to activate immediately")
	}
	if !m.ActAllowed(0, 0, 700, int64(burst)+m.minInterval+1) {
		t.Error("blacklisted row still blocked after the spacing interval")
	}
	// Other rows are unaffected.
	if !m.ActAllowed(0, 0, 5_000, int64(burst)+1) || !m.ActAllowed(0, 3, 700, int64(burst)+1) {
		t.Error("throttling leaked to unrelated rows")
	}
}

func TestBlockHammerBudgetBoundsWindowACTs(t *testing.T) {
	p := testParams(2_000)
	m, err := NewBlockHammer(p)
	if err != nil {
		t.Fatal(err)
	}
	// Drive one row as fast as the throttler allows across a full refresh
	// window; the admitted ACT count must stay below HCfirst (so a victim
	// flanked by two such aggressors accumulates < HCfirst hammers).
	acts := 0
	trc := p.TRC
	for cycle := int64(0); cycle < p.TREFW; cycle += trc {
		if m.ActAllowed(0, 0, 123, cycle) {
			m.OnActivate(0, 123, cycle, false)
			acts++
		}
	}
	if acts >= p.HCFirst {
		t.Errorf("throttler admitted %d ACTs in one window, budget is < %d", acts, p.HCFirst)
	}
	if acts < int(m.nbl) {
		t.Errorf("throttler admitted only %d ACTs; burst of %.0f should pass", acts, m.nbl)
	}
}

func TestBlockHammerEpochRotationForgivesOldActivity(t *testing.T) {
	p := testParams(2_000)
	m, err := NewBlockHammer(p)
	if err != nil {
		t.Fatal(err)
	}
	nbl := int(m.nbl)
	for i := 0; i < nbl+10; i++ {
		m.OnActivate(0, 42, int64(i), false)
	}
	if m.ActAllowed(0, 0, 42, int64(nbl)+11) {
		t.Fatal("row not blacklisted during the epoch")
	}
	// Two epoch lengths later both live filters have rotated past the
	// burst: the row starts fresh.
	later := p.TREFW + 10
	if !m.ActAllowed(0, 0, 42, later) {
		t.Error("blacklist survived full filter rotation")
	}
}

func TestBlockHammerPerRequesterAdmission(t *testing.T) {
	p := testParams(2_000)
	m, err := NewBlockHammer(p)
	if err != nil {
		t.Fatal(err)
	}
	// Requester 0 hammers one row the way the controller reports it: the
	// per-source attribution hook fires for every issued ACT, then the
	// mechanism observes the ACT itself.
	hammer := int(2.5 * m.nbl)
	for i := 0; i < hammer; i++ {
		m.OnRequesterACT(0, 0, 700, int64(i))
		m.OnActivate(0, 700, int64(i), false)
	}
	cycle := int64(hammer)
	if rhli := m.RHLI(0); rhli < 1 {
		t.Fatalf("hammering requester's RHLI = %.2f after %d hot-row ACTs, want ≥1", rhli, hammer)
	}
	if rhli := m.RHLI(1); rhli != 0 {
		t.Errorf("idle requester's RHLI = %.2f, want 0", rhli)
	}
	// The hammerer is rejected at admission even with an empty queue; a
	// benign requester touching the same blacklisted row is admitted.
	if m.AdmitRequest(0, 0, 700, 0, cycle) {
		t.Error("hammering requester admitted to its blacklisted row")
	}
	if !m.AdmitRequest(1, 0, 700, 0.9, cycle) {
		t.Error("benign requester rejected from a blacklisted row (per-requester policy must not take collateral)")
	}
	// Non-blacklisted rows are never admission-throttled, hammerer or not.
	if !m.AdmitRequest(0, 0, 5_000, 0.9, cycle) {
		t.Error("hammering requester rejected from a cold row")
	}
	// The row-level safety gate stays requester-blind: right after an ACT
	// the blacklisted row is inside its spacing window for everyone.
	m.OnActivate(0, 700, cycle, false)
	if m.ActAllowed(0, 0, 700, cycle+1) || m.ActAllowed(1, 0, 700, cycle+1) {
		t.Error("spacing window leaked through for some requester")
	}

	// The blanket variant rejects anyone once the queue is half full.
	b, err := NewBlockHammerBlanket(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() == m.Name() {
		t.Error("blanket variant shares the per-requester name")
	}
	for i := 0; i < int(b.nbl)+1; i++ {
		b.OnActivate(0, 700, int64(i), false)
	}
	bc := int64(b.nbl) + 1
	if b.AdmitRequest(1, 0, 700, 0.9, bc) {
		t.Error("blanket policy admitted a blacklisted-row read on a loaded queue")
	}
	if !b.AdmitRequest(1, 0, 700, 0.3, bc) {
		t.Error("blanket policy rejected below the half-full watermark")
	}
}

func TestBlockHammerProportionalDelay(t *testing.T) {
	p := testParams(2_000)
	m, err := NewBlockHammer(p)
	if err != nil {
		t.Fatal(err)
	}
	// Drive requester 0 to a high RHLI and requester 2 to a borderline
	// one (hot-row ACTs only after the ramp threshold count).
	hammer := int(3 * m.nbl)
	for i := 0; i < hammer; i++ {
		m.OnRequesterACT(0, 0, 700, int64(i))
		m.OnActivate(0, 700, int64(i), false)
	}
	// A few hot ACTs put requester 2 just above zero RHLI.
	for i := 0; i < 3; i++ {
		m.OnRequesterACT(2, 0, 700, int64(hammer+i))
	}
	cycle := int64(hammer + 3)
	heavy, light := m.RHLI(0), m.RHLI(2)
	if heavy < 1 {
		t.Fatalf("setup: hammering RHLI = %.2f, want ≥1", heavy)
	}
	if light <= 0 || light >= 1 {
		t.Fatalf("setup: borderline RHLI = %.2f, want in (0,1)", light)
	}

	// Proportional policy: both are rejected at first touch of the
	// blacklisted row, but the borderline source's delay window closes
	// sooner — strictly before the hammerer's.
	if m.AdmitRequest(0, 0, 700, 0, cycle) {
		t.Fatal("hammerer admitted without serving its delay")
	}
	if m.AdmitRequest(2, 0, 700, 0, cycle) {
		t.Fatal("borderline source admitted without serving its delay")
	}
	lightDelay := int64(light * float64(m.minInterval))
	heavyDelay := int64(heavy * float64(m.minInterval))
	if lightDelay >= heavyDelay {
		t.Fatalf("delays not proportional: light %d vs heavy %d", lightDelay, heavyDelay)
	}
	if !m.AdmitRequest(2, 0, 700, 0, cycle+lightDelay) {
		t.Error("borderline source still rejected after its proportional delay")
	}
	if m.AdmitRequest(0, 0, 700, 0, cycle+lightDelay) {
		t.Error("hammerer admitted after only the borderline delay")
	}
	if !m.AdmitRequest(0, 0, 700, 0, cycle+heavyDelay) {
		t.Error("hammerer still rejected after its full proportional delay")
	}
	// A zero-RHLI source is never delayed.
	if !m.AdmitRequest(1, 0, 700, 0.9, cycle) {
		t.Error("zero-RHLI source rejected (proportional policy must not take collateral)")
	}

	// The binary variant rejects the hammerer outright — no delay window
	// ever re-admits it while its RHLI stays ≥ 1.
	b, err := NewBlockHammerBinary(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hammer; i++ {
		b.OnRequesterACT(0, 0, 700, int64(i))
		b.OnActivate(0, 700, int64(i), false)
	}
	if b.Name() != "BlockHammer-binary" {
		t.Errorf("binary variant name = %q", b.Name())
	}
	bc := int64(hammer)
	for _, dt := range []int64{0, lightDelay, heavyDelay, 2 * heavyDelay} {
		if b.AdmitRequest(0, 0, 700, 0, bc+dt) {
			t.Fatalf("binary policy admitted a RHLI≥1 hammerer at +%d cycles", dt)
		}
	}
	if !b.AdmitRequest(1, 0, 700, 0.9, bc) {
		t.Error("binary policy rejected a zero-RHLI source")
	}
}

func TestBlockHammerRHLISurvivesEpochRotation(t *testing.T) {
	p := testParams(2_000)
	m, err := NewBlockHammer(p)
	if err != nil {
		t.Fatal(err)
	}
	hammer := int(3 * m.nbl)
	for i := 0; i < hammer; i++ {
		m.OnRequesterACT(0, 0, 700, int64(i))
		m.OnActivate(0, 700, int64(i), false)
	}
	before := m.RHLI(0)
	if before < 2 {
		t.Fatalf("setup: RHLI = %.2f, want ≥2", before)
	}
	// One epoch rotation: the previous epoch's filter still blacklists the
	// row, so the hammerer's RHLI must decay (halve), not vanish — or the
	// attacker would be re-admitted to a still-blacklisted row while its
	// index re-ramps at the spacing-bounded trickle.
	rotated := p.TREFW/2 + 10
	if got := m.RHLI(0); got != before {
		t.Fatalf("RHLI changed without rotation: %.2f vs %.2f", got, before)
	}
	if m.AdmitRequest(0, 0, 700, 0, rotated) {
		t.Error("hammerer re-admitted to its still-blacklisted row right after rotation")
	}
	after := m.RHLI(0)
	if after <= 0 || after >= before {
		t.Errorf("post-rotation RHLI = %.2f, want halved from %.2f", after, before)
	}
}

func TestMRLocRefreshesLocalVictims(t *testing.T) {
	m, err := NewMRLoc(testParams(2_000))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Viable() {
		t.Error("MRLoc at 2000 must be viable")
	}
	refreshes := 0
	for i := 0; i < 20_000; i++ {
		refreshes += len(m.OnActivate(0, 100, int64(i), false))
	}
	if refreshes == 0 {
		t.Error("MRLoc never refreshed a repeatedly hammered victim")
	}
	// A scan over distinct rows must trigger (almost) nothing.
	cold, _ := NewMRLoc(testParams(2_000))
	coldRefreshes := 0
	for i := 0; i < 20_000; i++ {
		coldRefreshes += len(cold.OnActivate(0, (i*37)%16000, int64(i), false))
	}
	if coldRefreshes > refreshes/4 {
		t.Errorf("MRLoc refreshed %d victims on a streaming scan (attack: %d)", coldRefreshes, refreshes)
	}
}
