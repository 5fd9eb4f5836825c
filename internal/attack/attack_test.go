package attack

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/trace"
)

func testGeo() dram.Geometry {
	g := dram.Table6Geometry()
	g.Rows = 1024
	return g
}

func testChip(t *testing.T, hc float64) *faultmodel.Chip {
	t.Helper()
	geo := testGeo()
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name: "attack-test", Banks: geo.Banks(), Rows: geo.Rows, RowBits: 512,
		HCFirst: hc, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	chip.WriteAll(faultmodel.RowStripe0)
	return chip
}

func TestSynthesizeShapes(t *testing.T) {
	geo := testGeo()
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		t.Fatal(err)
	}
	target := Target{Bank: 3, Row: 500}
	for _, kind := range Kinds() {
		spec := Spec{Kind: kind, Seed: 5}
		tr, refs, err := spec.Synthesize(geo, target)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(tr.Records) == 0 || len(refs) == 0 {
			t.Fatalf("%s: empty synthesis", kind)
		}
		for _, r := range tr.Records {
			if !r.NoCache || r.Write {
				t.Fatalf("%s: attack records must be uncached reads, got %+v", kind, r)
			}
		}
		for _, ref := range refs {
			if ref.Bank < 0 || ref.Bank >= geo.Banks() || ref.Row < 1 || ref.Row > geo.Rows-2 {
				t.Fatalf("%s: aggressor %+v out of range", kind, ref)
			}
		}
		// Every synthesized address must land on a declared aggressor row,
		// except decoy rows for the Decoy kind.
		onAgg := 0
		for _, r := range tr.Records {
			a := mapper.Map(r.Addr)
			found := false
			for _, ref := range refs {
				if a.Bank == ref.Bank && a.Row == ref.Row {
					found = true
					break
				}
			}
			if found {
				onAgg++
			} else if kind != Decoy {
				t.Fatalf("%s: address maps to %v, not an aggressor", kind, a)
			}
		}
		if kind == Decoy {
			decoys := len(tr.Records) - onAgg
			if decoys == 0 {
				t.Error("decoy pattern produced no decoy accesses")
			}
			if onAgg == 0 {
				t.Error("decoy pattern produced no aggressor accesses")
			}
		}
	}
}

func TestSynthesizePerKindStructure(t *testing.T) {
	geo := testGeo()
	target := Target{Bank: 2, Row: 400}

	_, refs, err := Spec{Kind: DoubleSided}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Row != 399 || refs[1].Row != 401 {
		t.Errorf("double-sided aggressors = %v", refs)
	}

	_, refs, err = Spec{Kind: ManySided, Sides: 6}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 6 {
		t.Fatalf("many-sided aggressors = %v", refs)
	}
	for i := 1; i < len(refs); i++ {
		if refs[i].Row-refs[i-1].Row != 2 {
			t.Errorf("many-sided spacing: %v", refs)
		}
	}
	// Near either bank edge the window slides but must keep the victim
	// flanked and never make the victim its own aggressor (an ACT on the
	// victim would reset its damage and fake a secure result).
	for _, victim := range []int{1, 2, geo.Rows - 3, geo.Rows - 2, geo.Rows - 1, 400} {
		_, refs, err := Spec{Kind: ManySided, Sides: 8}.Synthesize(geo, Target{Bank: 0, Row: victim})
		if err != nil {
			t.Fatal(err)
		}
		v := victim
		if v < 1 {
			v = 1
		}
		if v > geo.Rows-2 {
			v = geo.Rows - 2
		}
		got := map[int]bool{}
		for _, r := range refs {
			got[r.Row] = true
		}
		if got[v] {
			t.Errorf("victim %d is in its own many-sided aggressor set %v", v, refs)
		}
		if !got[v-1] || !got[v+1] {
			t.Errorf("victim %d not flanked by many-sided set %v", v, refs)
		}
	}

	_, refs, err = Spec{Kind: Scattered, Banks: 4}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	banks := map[int]bool{}
	for _, r := range refs {
		banks[r.Bank] = true
	}
	if len(banks) != 4 {
		t.Errorf("scattered banks = %v", refs)
	}

	_, refs, err = Spec{Kind: SingleSided}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Row != 399 {
		t.Errorf("single-sided refs = %v", refs)
	}
	if d := refs[1].Row - target.Row; d > -8 && d < 8 {
		t.Errorf("single-sided conflict row %d too close to victim", refs[1].Row)
	}
}

func TestSynthesizeClampsEdges(t *testing.T) {
	geo := testGeo()
	for _, row := range []int{0, 1, geo.Rows - 1} {
		for _, kind := range Kinds() {
			_, refs, err := Spec{Kind: kind, Seed: 2}.Synthesize(geo, Target{Bank: 0, Row: row})
			if err != nil {
				t.Fatalf("%s at row %d: %v", kind, row, err)
			}
			for _, ref := range refs {
				if ref.Row < 0 || ref.Row > geo.Rows-1 {
					t.Fatalf("%s at row %d: aggressor %+v escapes the bank", kind, row, ref)
				}
			}
		}
	}
}

func TestSynthesizeDecoyTinyGeometry(t *testing.T) {
	// The decoy exclusion band must shrink with the bank: a mid-bank
	// victim in the minimum 16-row geometry used to starve decoyRow of
	// candidates and hang synthesis.
	geo := testGeo()
	geo.Rows = 16
	for victim := 0; victim < geo.Rows; victim++ {
		tr, _, err := Spec{Kind: Decoy, Seed: 1, Records: 64}.Synthesize(geo, Target{Bank: 0, Row: victim})
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if len(tr.Records) != 64 {
			t.Fatalf("victim %d: %d records", victim, len(tr.Records))
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	geo := testGeo()
	a, _, err := Spec{Kind: Decoy, Seed: 9}.Synthesize(geo, Target{Bank: 1, Row: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Spec{Kind: Decoy, Seed: 9}.Synthesize(geo, Target{Bank: 1, Row: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across same-seed synthesis", i)
		}
	}
}

func TestDutyCyclePacing(t *testing.T) {
	geo := testGeo()
	target := Target{Bank: 1, Row: 300}
	continuous, _, err := Spec{Kind: DoubleSided, Records: 256, Seed: 3}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	paced, _, err := Spec{Kind: DoubleSided, Records: 256, Seed: 3, DutyCycle: 0.25}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(paced.Records) != len(continuous.Records) {
		t.Fatalf("pacing changed the record count: %d vs %d", len(paced.Records), len(continuous.Records))
	}
	// Every paced record is serialized (at least the serialization gap on
	// top of the continuous stream's gap), and burst boundaries addit-
	// ionally idle through 75% of each period in gap instructions.
	idles := 0
	for i := range paced.Records {
		if paced.Records[i].Addr != continuous.Records[i].Addr {
			t.Fatalf("record %d: pacing changed the access stream", i)
		}
		extra := paced.Records[i].Gap - continuous.Records[i].Gap
		if extra < serialGapInsts {
			t.Fatalf("record %d: paced gap %d lacks the serialization gap", i, paced.Records[i].Gap)
		}
		if extra > serialGapInsts {
			idles++
		}
	}
	if idles == 0 {
		t.Fatal("duty cycle inserted no idle stretches")
	}
	period := float64(defaultPeriodCycles)
	wantIdle := int(0.75 * period * idleInstsPerMemCycle)
	if paced.Instructions() < continuous.Instructions()+int64(idles)*int64(wantIdle)/2 {
		t.Errorf("paced trace only %d instructions vs %d continuous; idle stretches too short",
			paced.Instructions(), continuous.Instructions())
	}

	// Phase shifts where within each period the idle stretch falls: the
	// first burst is shortened, every later boundary moves with it, and —
	// because the shift is periodic, not a one-time prefix — the structure
	// survives cyclic replay.
	phased, _, err := Spec{Kind: DoubleSided, Records: 256, Seed: 3, DutyCycle: 0.25, Phase: 0.5}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	unphased, _, err := Spec{Kind: DoubleSided, Records: 256, Seed: 3, DutyCycle: 0.25}.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	idleAt := func(recs []trace.Record) []int {
		var out []int
		for i := range recs {
			if recs[i].Gap > continuous.Records[i].Gap+serialGapInsts {
				out = append(out, i)
			}
		}
		return out
	}
	phasedIdx := idleAt(phased.Records)
	baseIdx := idleAt(unphased.Records)
	if len(phasedIdx) < 2 || len(baseIdx) < 2 {
		t.Fatalf("too few idle stretches to compare: %d phased, %d unphased", len(phasedIdx), len(baseIdx))
	}
	if phasedIdx[0] >= baseIdx[0] {
		t.Errorf("phase 0.5 first idle at record %d, want earlier than unphased %d", phasedIdx[0], baseIdx[0])
	}
	if (phasedIdx[1] - phasedIdx[0]) != (baseIdx[1] - baseIdx[0]) {
		t.Errorf("phase changed the burst period: %d vs %d", phasedIdx[1]-phasedIdx[0], baseIdx[1]-baseIdx[0])
	}
	if phased.Records[0].Gap != unphased.Records[0].Gap {
		t.Error("phase added a one-time prefix delay; it would re-apply on every replay pass")
	}
}

// TestSpecValidateRejectsOutOfRangePacing pins the bugfix: out-of-range
// DutyCycle/Phase used to be silently ignored (the attack ran unpaced);
// they must be validation errors in both Validate and Synthesize.
func TestSpecValidateRejectsOutOfRangePacing(t *testing.T) {
	geo := testGeo()
	target := Target{Bank: 0, Row: 200}
	bad := []Spec{
		{Kind: DoubleSided, DutyCycle: 1},
		{Kind: DoubleSided, DutyCycle: 1.5},
		{Kind: DoubleSided, DutyCycle: -0.1},
		{Kind: DoubleSided, DutyCycle: 0.5, Phase: 1},
		{Kind: DoubleSided, DutyCycle: 0.5, Phase: 2.5},
		{Kind: DoubleSided, DutyCycle: 0.5, Phase: -0.25},
		// Phase without pacing would be silently ignored — also an error.
		{Kind: DoubleSided, Phase: 0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted duty=%g phase=%g", s.DutyCycle, s.Phase)
		}
		if _, _, err := s.Synthesize(geo, target); err == nil {
			t.Errorf("Synthesize accepted duty=%g phase=%g", s.DutyCycle, s.Phase)
		}
	}
	for _, s := range []Spec{
		{Kind: DoubleSided},
		{Kind: DoubleSided, DutyCycle: 0.99, Phase: 0.99},
		{Kind: DoubleSided, DutyCycle: 0.01},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate rejected duty=%g phase=%g: %v", s.DutyCycle, s.Phase, err)
		}
	}
	// A trace too short to hold even one burst plus an idle stretch would
	// silently replay as a full-rate attack: Synthesize must reject it,
	// and so must Validate, which spec decode calls.
	short := Spec{Kind: DoubleSided, Records: 20, DutyCycle: 0.25}
	if _, _, err := short.Synthesize(geo, target); err == nil {
		t.Error("Synthesize accepted a trace shorter than one duty-cycle burst")
	}
	if err := short.Validate(); err == nil {
		t.Error("Validate accepted a trace shorter than one duty-cycle burst")
	}
}

// TestPhaseSurvivesSmallBursts pins the bugfix: on bursts small enough
// that Phase×burst truncated to zero, the requested phase used to be
// dropped entirely; the shift now rounds up to at least one record.
func TestPhaseSurvivesSmallBursts(t *testing.T) {
	geo := testGeo()
	target := Target{Bank: 1, Row: 300}
	// A tiny period gives a burst of very few records, so Phase×burst < 1.
	base := Spec{Kind: DoubleSided, Records: 64, Seed: 3, DutyCycle: 0.2, PeriodCycles: 1000}
	burst := int(base.DutyCycle * float64(base.PeriodCycles) / serialACTCycles)
	if burst < 1 {
		burst = 1
	}
	if int(0.2*float64(burst)) != 0 {
		// Guard: the scenario must actually exercise the truncation path.
		t.Fatalf("test burst %d too large to exercise shift truncation", burst)
	}
	unphased, _, err := base.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	phasedSpec := base
	phasedSpec.Phase = 0.2
	phased, _, err := phasedSpec.Synthesize(geo, target)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range phased.Records {
		if phased.Records[i].Gap != unphased.Records[i].Gap {
			same = false
			break
		}
	}
	if same {
		t.Error("phase 0.2 on a small burst changed nothing; the shift truncated to zero")
	}
}

func TestObserverTimeline(t *testing.T) {
	chip := testChip(t, 1000)
	obs := NewObserver(chip)
	weak := chip.WeakestCell()
	lo, hi, _ := chip.AggressorsFor(weak.Row)
	obs.WatchAggressors([]RowRef{{Bank: weak.Bank, Row: lo}, {Bank: weak.Bank, Row: hi}})

	obs.OnACT(0, weak.Bank, lo, 10)
	obs.OnACT(0, weak.Bank, hi, 20)
	obs.OnACT(0, weak.Bank, 900, 30) // unwatched row
	// One REF covers every bank at the same cycle: the window must close
	// exactly once.
	for b := 0; b < chip.Banks(); b++ {
		obs.OnRefresh(0, b, 0, 64, 100)
	}
	obs.OnACT(0, weak.Bank, lo, 150)
	for b := 0; b < chip.Banks(); b++ {
		obs.OnRefresh(0, b, 64, 64, 200)
	}
	tl := obs.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline windows = %d, want 2 (per-bank REF callbacks must deduplicate)", len(tl))
	}
	if tl[0].REFCycle != 100 || tl[0].ACTs != 3 || tl[0].AggressorACTs != 2 {
		t.Errorf("window 0 = %+v, want REF@100 with 3 ACTs / 2 aggressor", tl[0])
	}
	if tl[1].REFCycle != 200 || tl[1].ACTs != 1 || tl[1].AggressorACTs != 1 {
		t.Errorf("window 1 = %+v, want REF@200 with 1 ACT / 1 aggressor", tl[1])
	}
}

// eccChip builds an on-die-ECC (LPDDR4-like) chip for observer tests.
func eccChip(t *testing.T, hc float64) *faultmodel.Chip {
	t.Helper()
	geo := testGeo()
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name: "attack-ecc", Banks: geo.Banks(), Rows: geo.Rows, RowBits: 512,
		HCFirst: hc, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, OnDieECC: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	chip.WriteAll(faultmodel.RowStripe0)
	return chip
}

func TestObserverECCPostCorrection(t *testing.T) {
	chip := eccChip(t, 1000)
	obs := NewObserver(chip)
	weak := chip.WeakestCell()
	lo, hi, ok := chip.AggressorsFor(weak.Row)
	if !ok {
		t.Fatal("weakest cell at bank edge")
	}
	hammerTo := func(target int) {
		for obs.Damage(weak.Bank, weak.Row) < float64(target) {
			obs.OnACT(0, weak.Bank, lo, 0)
			obs.OnACT(0, weak.Bank, hi, 0)
		}
	}
	// Just past the weakest cell: one raw flip, corrected by the SEC code,
	// so nothing escapes yet.
	hammerTo(1001)
	if obs.RawFlips() == 0 {
		t.Fatal("no raw flip past the weakest threshold")
	}
	if obs.EscapedFlips() != 0 {
		t.Fatalf("single raw flip escaped through on-die ECC: %v", obs.Flips())
	}
	// Past the same-word companion (≤1.12×HCfirst): two raw flips share a
	// codeword, the decoder's behaviour is undefined, and flips escape.
	hammerTo(1150)
	if obs.RawFlips() < 2 {
		t.Fatalf("raw flips = %d, want ≥2 past the companion threshold", obs.RawFlips())
	}
	if obs.EscapedFlips() == 0 {
		t.Error("double raw flip fully corrected — SEC cannot do that")
	}
	if obs.EscapedFlips() > 0 && obs.FirstFlipCycle() < 0 {
		t.Error("escaped flips without a first-flip cycle")
	}
}

func TestObserverCrossesThresholdExactly(t *testing.T) {
	chip := testChip(t, 1000)
	obs := NewObserver(chip)
	weak := chip.WeakestCell()
	lo, hi, ok := chip.AggressorsFor(weak.Row)
	if !ok {
		t.Fatal("weakest cell at bank edge")
	}
	obs.WatchAggressors([]RowRef{{Bank: weak.Bank, Row: lo}, {Bank: weak.Bank, Row: hi}})

	// Alternate the aggressors: each ACT adds 0.5 effective hammers.
	cycle := int64(0)
	for i := 0; i < 2*1000-1; i++ {
		row := lo
		if i%2 == 1 {
			row = hi
		}
		obs.OnACT(0, weak.Bank, row, cycle)
		cycle += 56
	}
	if got := obs.EscapedFlips(); got != 0 {
		t.Fatalf("flips before threshold: %d (damage %.1f)", got, obs.Damage(weak.Bank, weak.Row))
	}
	obs.OnACT(0, weak.Bank, lo, cycle)
	if got := obs.EscapedFlips(); got == 0 {
		t.Fatalf("no flip at damage %.1f ≥ threshold %.0f", obs.Damage(weak.Bank, weak.Row), weak.Threshold)
	}
	if obs.FirstFlipCycle() != cycle {
		t.Errorf("first flip cycle %d, want %d", obs.FirstFlipCycle(), cycle)
	}
	if obs.AggressorACTs() != 2*1000 {
		t.Errorf("aggressor ACTs = %d, want %d", obs.AggressorACTs(), 2*1000)
	}
	// The flip is permanent: further hammering must not duplicate it.
	n := obs.EscapedFlips()
	for i := 0; i < 100; i++ {
		obs.OnACT(0, weak.Bank, lo, cycle+int64(i))
		obs.OnACT(0, weak.Bank, hi, cycle+int64(i))
	}
	for _, f := range obs.Flips()[:n] {
		count := 0
		for _, g := range obs.Flips() {
			if g.Flip == f.Flip {
				count++
			}
		}
		if count != 1 {
			t.Errorf("flip %+v recorded %d times", f.Flip, count)
		}
	}
}

func TestObserverRefreshResetsDamage(t *testing.T) {
	chip := testChip(t, 1000)
	obs := NewObserver(chip)
	weak := chip.WeakestCell()
	lo, hi, _ := chip.AggressorsFor(weak.Row)

	// Accumulate 90% of the threshold, refresh the victim, then repeat:
	// no flip may occur.
	hammer := func(n int) {
		for i := 0; i < n; i++ {
			obs.OnACT(0, weak.Bank, lo, int64(i))
			obs.OnACT(0, weak.Bank, hi, int64(i))
		}
	}
	hammer(900)
	if obs.Damage(weak.Bank, weak.Row) != 900 {
		t.Fatalf("damage = %.1f, want 900", obs.Damage(weak.Bank, weak.Row))
	}
	obs.OnRefresh(0, weak.Bank, weak.Row, 1, 1000)
	if obs.Damage(weak.Bank, weak.Row) != 0 {
		t.Fatal("auto-refresh did not reset damage")
	}
	hammer(900)
	if obs.EscapedFlips() != 0 {
		t.Fatalf("flips despite refresh: %d", obs.EscapedFlips())
	}
	// A mitigation victim refresh is an ACT on the victim row itself.
	obs.OnACT(0, weak.Bank, weak.Row, 2000)
	if obs.Damage(weak.Bank, weak.Row) != 0 {
		t.Fatal("own activation did not restore the row")
	}
}

func TestObserverRefreshRotationWraps(t *testing.T) {
	chip := testChip(t, 1000)
	obs := NewObserver(chip)
	rows := chip.Rows()
	// Damage rows 0 and rows-1 via their neighbors, then cover both with a
	// wrapping rotation window.
	obs.OnACT(0, 0, 1, 0)
	obs.OnACT(0, 0, rows-2, 0)
	if obs.Damage(0, 0) == 0 || obs.Damage(0, rows-1) == 0 {
		t.Fatal("setup: no damage accumulated")
	}
	obs.OnRefresh(0, 0, rows-2, 4, 1) // covers rows-2, rows-1, 0, 1
	if obs.Damage(0, 0) != 0 || obs.Damage(0, rows-1) != 0 {
		t.Error("wrapping rotation did not reset both edge rows")
	}
}
