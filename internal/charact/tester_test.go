package charact

import (
	"reflect"
	"testing"

	"repro/internal/chips"
	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/stats"
)

func testChip(t *testing.T, mutate func(*faultmodel.Config)) *faultmodel.Chip {
	t.Helper()
	cfg := faultmodel.Config{
		Name: "test", Type: dram.DDR4, Node: "new", Mfr: "A",
		Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 10_000, Rate150k: 1e-4,
		WorstPattern: faultmodel.RowStripe0,
		Seed:         7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := faultmodel.NewChip(cfg)
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return c
}

func newTester(t *testing.T, c *faultmodel.Chip) *Tester {
	t.Helper()
	tt, err := NewTester(c, 0)
	if err != nil {
		t.Fatalf("NewTester: %v", err)
	}
	tt.WritePattern(c.Config().WorstPattern)
	return tt
}

func TestMeasureHCFirstFindsWeakestCell(t *testing.T) {
	c := testChip(t, nil)
	tt := newTester(t, c)
	hc, found, err := tt.MeasureHCFirst(1)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("chip with HCFirst=10k reported not RowHammerable")
	}
	// Probabilistic flips put the measurement within ~±25% of the truth.
	truth := c.Config().HCFirst
	if float64(hc) < 0.7*truth || float64(hc) > 1.35*truth {
		t.Fatalf("measured HCfirst = %d, want within 30%% of %v", hc, truth)
	}
}

func TestMeasureHCFirstNotRowHammerable(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) { cfg.HCFirst = 220_000 })
	tt := newTester(t, c)
	_, found, err := tt.MeasureHCFirst(1)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("chip with HCFirst=220k reported RowHammerable within the 150k sweep")
	}
}

func TestHammerBounds(t *testing.T) {
	c := testChip(t, nil)
	tt := newTester(t, c)
	if _, err := tt.HammerDoubleSided(10, 0); err == nil {
		t.Error("zero hammer count accepted")
	}
	if _, err := tt.HammerDoubleSided(10, tt.MaxHC+1); err == nil {
		t.Error("hammer count beyond the 32 ms bound accepted")
	}
	if _, err := tt.HammerDoubleSided(0, 1000); err == nil {
		t.Error("edge row without two aggressors accepted")
	}
}

// TestPairedOddVictimWindow pins the window a double-sided test reads on
// a paired-wordline chip. The low aggressor of an odd victim on wordline
// v disturbs wordline v-1-BlastRadius, whose even row lies 2·reach+1 rows
// below the victim (reach = BlastRadius+1); the weakest cell sits there
// and W3 = 0.5 puts a full aggressor's damage on it.
func TestPairedOddVictimWindow(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) {
		cfg.PairedWordlines = true
		cfg.W3 = 0.5
	})
	tt := newTester(t, c)
	weak := c.WeakestCell()
	reach := c.BlastRadius() + 1
	victim := 2*(weak.Row/2+reach) + 1
	if _, _, ok := c.AggressorsFor(victim); !ok {
		t.Fatalf("victim %d (weak row %d) has no aggressors; pick another seed", victim, weak.Row)
	}
	flips, err := tt.HammerDoubleSided(victim, 3*int(c.Config().HCFirst))
	if err != nil {
		t.Fatal(err)
	}
	want := faultmodel.Flip{Bank: weak.Bank, Row: weak.Row, Bit: weak.Bit}
	for _, f := range flips {
		if f == want {
			return
		}
	}
	t.Fatalf("victim %d (weak row %d, reach %d): weakest cell's flip not observed", victim, weak.Row, reach)
}

func TestSweepRateGrowsWithHC(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) { cfg.Rate150k = 1e-3 })
	tt := newTester(t, c)
	low, err := tt.Sweep(20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := tt.Sweep(140_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if high.Rate() <= low.Rate() {
		t.Fatalf("rate at 140k (%g) not above rate at 20k (%g)", high.Rate(), low.Rate())
	}
}

func TestCoverageIdentifiesWorstPattern(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) { cfg.Rate150k = 1e-3 })
	tt := newTester(t, c)
	cov, err := tt.MeasureCoverage(140_000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Total == 0 {
		t.Fatal("coverage experiment found no flips")
	}
	worst, ok := cov.WorstPattern()
	if !ok {
		t.Fatal("no worst pattern identified")
	}
	if worst != c.Config().WorstPattern {
		t.Errorf("worst pattern = %v, want %v (coverage map: %v)",
			worst, c.Config().WorstPattern, cov.FlipCount)
	}
	// No pattern may exceed full coverage; the union must dominate.
	for p, f := range cov.Coverage {
		if f < 0 || f > 1 {
			t.Errorf("coverage[%v] = %v out of [0,1]", p, f)
		}
	}
}

func TestSpatialProfileEvenOffsets(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) {
		cfg.Rate150k = 1e-3
		cfg.W3 = 0.12
		cfg.W5 = 0.05
	})
	tt := newTester(t, c)
	sp, err := tt.MeasureSpatial(140_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total == 0 {
		t.Fatal("no flips in spatial profile")
	}
	if sp.Fraction[0] < 0.5 {
		t.Errorf("victim-row fraction = %v, want dominant (≥0.5)", sp.Fraction[0])
	}
	for off, f := range sp.Fraction {
		if off%2 != 0 && f > 0 {
			t.Errorf("flips at odd offset %+d (fraction %v)", off, f)
		}
		if off == 1 || off == -1 {
			t.Errorf("flips in aggressor row at offset %+d", off)
		}
	}
}

func TestReverseEngineerIdentity(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) { cfg.Rate150k = 1e-3 })
	tt := newTester(t, c)
	kind, err := tt.ReverseEngineerRemap(8)
	if err != nil {
		t.Fatal(err)
	}
	if kind != RemapIdentity {
		t.Fatalf("remap = %v, want identity", kind)
	}
	off, err := kind.AggressorOffset()
	if err != nil || off != 1 {
		t.Fatalf("aggressor offset = %d, %v; want 1, nil", off, err)
	}
}

func TestReverseEngineerPaired(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) {
		cfg.Rate150k = 5e-3
		cfg.PairedWordlines = true
		cfg.Type = dram.LPDDR4
		cfg.OnDieECC = true
		cfg.HCFirst = 16_800
		cfg.ClusterP = 0.35
	})
	tt := newTester(t, c)
	kind, err := tt.ReverseEngineerRemap(24)
	if err != nil {
		t.Fatal(err)
	}
	if kind != RemapPairedWordlines {
		t.Fatalf("remap = %v, want paired-wordlines", kind)
	}
	off, err := kind.AggressorOffset()
	if err != nil || off != 2 {
		t.Fatalf("aggressor offset = %d, %v; want 2, nil", off, err)
	}
}

func TestMonotonicityECCVsRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("monotonicity sweep is slow")
	}
	hcs := DefaultMonotonicityHCs()
	raw := testChip(t, func(cfg *faultmodel.Config) { cfg.Rate150k = 5e-4 })
	tr := newTester(t, raw)
	mRaw, err := tr.MeasureMonotonicity(hcs, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	eccChip := testChip(t, func(cfg *faultmodel.Config) {
		cfg.Rate150k = 3e-3 // dense: ECC-word interactions need many cells
		cfg.OnDieECC = true
		cfg.Type = dram.LPDDR4
		cfg.ClusterP = 0.45
	})
	te := newTester(t, eccChip)
	mECC, err := te.MeasureMonotonicity(hcs, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mRaw.Cells == 0 || mECC.Cells == 0 {
		t.Fatalf("vacuous monotonicity data: raw %d cells, ecc %d cells", mRaw.Cells, mECC.Cells)
	}
	if mRaw.Percent() < 85 {
		t.Errorf("raw chip monotonicity = %.1f%%, want ≥85%% (Table 5: >97%%)", mRaw.Percent())
	}
	// On-die ECC obscures per-cell probabilities (Table 5's ≈50% rows):
	// its monotonic share must not exceed the raw chip's.
	if mECC.Percent() > mRaw.Percent() {
		t.Errorf("on-die ECC monotonicity (%.1f%%) above raw (%.1f%%)",
			mECC.Percent(), mRaw.Percent())
	}
}

// TestMonotonicityIterations pins Table 5's iteration count: the
// measurement runs and reports as many iterations as asked, one included,
// and rejects fewer than one instead of substituting a default.
func TestMonotonicityIterations(t *testing.T) {
	tt := newTester(t, testChip(t, nil))
	hcs := []int{20_000, 30_000}
	m, err := tt.MeasureMonotonicity(hcs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 1 {
		t.Errorf("one iteration asked, %d reported", m.Iterations)
	}
	for _, n := range []int{0, -3} {
		if _, err := tt.MeasureMonotonicity(hcs, n, 4); err == nil {
			t.Errorf("%d iterations accepted", n)
		}
	}
}

func TestHCForRateApproximatesTarget(t *testing.T) {
	c := testChip(t, func(cfg *faultmodel.Config) { cfg.Rate150k = 1e-3 })
	tt := newTester(t, c)
	hc, err := tt.HCForRate(1e-4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := tt.Sweep(hc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Rate() == 0 {
		t.Fatalf("HCForRate picked hc=%d with zero rate", hc)
	}
}

func TestPopulationChipMeasurement(t *testing.T) {
	// End-to-end: instantiate a population chip and verify its measured
	// HCfirst tracks the spec.
	pop := chips.NewPopulation(chips.DDR4Modules()[:1], chips.ScaleTiny, 1)
	if len(pop.Chips) == 0 {
		t.Fatal("empty population")
	}
	spec := pop.Chips[0]
	chip, err := pop.Instantiate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTester(chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	tt.WritePattern(chip.Config().WorstPattern)
	hc, found, err := tt.MeasureHCFirst(1)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("chip %s (HCFirst %v) not RowHammerable", spec.Name, spec.HCFirst)
	}
	if f := float64(hc); f < 0.6*spec.HCFirst || f > 1.5*spec.HCFirst {
		t.Fatalf("measured %d, spec %v: out of tolerance", hc, spec.HCFirst)
	}
}

// TestQuietSkipMatchesTestFlips requires HammerDoubleSided to return
// exactly what BeginTest, both Activates and TestFlips return on a twin
// chip with the same nonce, whether or not the count is below the
// victim's quiet bound, and to leave the chip in the twin's test state.
// Every victim is tested at its bound −1, the bound, +1 and a random
// count, on paired and unpaired chips with on-die ECC on and off and
// reaches 1, 3 and 5.
func TestQuietSkipMatchesTestFlips(t *testing.T) {
	rng := stats.NewRNG(0x9e1e)
	var quiet, loud, flips int
	for _, paired := range []bool{false, true} {
		for _, ecc := range []bool{false, true} {
			for _, w := range [][2]float64{{0, 0}, {0.3, 0}, {0.3, 0.2}} {
				mutate := func(cfg *faultmodel.Config) {
					cfg.Rows = 96
					cfg.Rate150k = 5e-3
					cfg.PairedWordlines, cfg.OnDieECC = paired, ecc
					if ecc {
						cfg.Type = dram.LPDDR4
					}
					cfg.W3, cfg.W5 = w[0], w[1]
				}
				c, twin := testChip(t, mutate), testChip(t, mutate)
				tt := newTester(t, c)
				twin.WriteAll(c.Pattern())
				for v := 0; v < c.Rows(); v++ {
					lo, hi, ok := c.AggressorsFor(v)
					if !ok {
						continue
					}
					q := c.QuietBelow(0, v)
					for _, hc := range []int{q - 1, q, q + 1, 1 + rng.Intn(tt.MaxHC)} {
						if hc < 1 || hc > tt.MaxHC {
							continue
						}
						got, err := tt.HammerDoubleSided(v, hc)
						if err != nil {
							t.Fatal(err)
						}
						twin.BeginTest(tt.nonce)
						for _, agg := range []int{lo, hi} {
							if err := twin.Activate(0, agg, hc); err != nil {
								t.Fatal(err)
							}
						}
						want := twin.TestFlips(0)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v victim %d hc %d (bound %d): HammerDoubleSided %v, TestFlips %v",
								c.Config(), v, hc, q, got, want)
						}
						if after := c.TestFlips(0); !reflect.DeepEqual(after, want) {
							t.Fatalf("%+v victim %d hc %d (bound %d): chip's test state reads %v after the call, twin's %v",
								c.Config(), v, hc, q, after, want)
						}
						if hc < q {
							quiet++
						} else {
							loud++
						}
						flips += len(want)
					}
				}
			}
		}
	}
	t.Logf("%d tests below their bound, %d at or above it, %d flips", quiet, loud, flips)
	if quiet == 0 || loud == 0 || flips == 0 {
		t.Fatal("no quiet test, no read-back or no flip; the comparison is vacuous")
	}
}
