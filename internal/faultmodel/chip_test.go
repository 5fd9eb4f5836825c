package faultmodel

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// testConfig returns a small, fast chip configuration.
func testConfig() Config {
	return Config{
		Name: "test", Type: dram.DDR4, Node: "new", Mfr: "A",
		Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 10_000, Rate150k: 1e-4,
		WorstPattern: RowStripe0,
		Seed:         42,
	}
}

func mustChip(t *testing.T, cfg Config) *Chip {
	t.Helper()
	c, err := NewChip(cfg)
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return c
}

func TestNewChipValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero banks", func(c *Config) { c.Banks = 0 }},
		{"zero rows", func(c *Config) { c.Rows = 0 }},
		{"one row", func(c *Config) { c.Rows = 1 }},
		{"three rows", func(c *Config) { c.Rows = 3 }},
		{"zero row bits", func(c *Config) { c.RowBits = 0 }},
		{"row bits below a word", func(c *Config) { c.RowBits = 32 }},
		{"zero hcfirst", func(c *Config) { c.HCFirst = 0 }},
		{"bad pattern", func(c *Config) { c.WorstPattern = NumPatterns }},
		{"ecc non-multiple", func(c *Config) { c.OnDieECC = true; c.RowBits = 100 }},
		{"paired odd rows", func(c *Config) { c.PairedWordlines = true; c.Rows = 255 }},
		{"negative W3", func(c *Config) { c.W3 = -0.1 }},
		{"negative W5", func(c *Config) { c.W3, c.W5 = 0.3, -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := NewChip(cfg); err == nil {
				t.Fatalf("want error for %s, got none", tc.name)
			}
		})
	}
}

func TestWeakestCellCalibration(t *testing.T) {
	c := mustChip(t, testConfig())
	min, ok := c.MinThreshold(c.Config().WorstPattern)
	if !ok {
		t.Fatal("no eligible cells under the worst pattern")
	}
	if min != c.Config().HCFirst {
		t.Fatalf("weakest eligible threshold = %v, want exactly HCFirst %v", min, c.Config().HCFirst)
	}
	// Under every other pattern the minimum must be at least HCFirst.
	for p := Pattern(0); p < NumPatterns; p++ {
		if m, ok := c.MinThreshold(p); ok && m < c.Config().HCFirst {
			t.Fatalf("pattern %v min threshold %v < HCFirst", p, m)
		}
	}
}

func TestDoubleSidedHammerFlipsAboveThreshold(t *testing.T) {
	c := mustChip(t, testConfig())
	c.WriteAll(c.Config().WorstPattern)

	// Find the weakest cell's row via the analytic API.
	var weakRow int
	best := 1e18
	c.ForEachCell(func(ci CellInfo) {
		if ci.Threshold < best {
			best = ci.Threshold
			weakRow = ci.Row
		}
	})

	lo, hi, ok := c.AggressorsFor(weakRow)
	if !ok {
		t.Fatalf("no aggressors for row %d", weakRow)
	}

	hammer := func(hc int) int {
		c.BeginTest(uint64(hc))
		if err := c.Activate(0, lo, hc); err != nil {
			t.Fatal(err)
		}
		if err := c.Activate(0, hi, hc); err != nil {
			t.Fatal(err)
		}
		return len(c.ObservedFlips(0, weakRow))
	}

	if n := hammer(3 * int(c.Config().HCFirst)); n == 0 {
		t.Errorf("no flips at 3×HCFirst hammers")
	}
	if n := hammer(int(c.Config().HCFirst) / 4); n != 0 {
		t.Errorf("got %d flips at HCFirst/4 hammers, want 0", n)
	}
}

func TestAggressorRowsAreImmune(t *testing.T) {
	c := mustChip(t, testConfig())
	c.WriteAll(c.Config().WorstPattern)
	c.BeginTest(1)
	// Hammer rows 10 and 12 (victim 11): neither aggressor may flip.
	if err := c.Activate(0, 10, 500_000); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(0, 12, 500_000); err != nil {
		t.Fatal(err)
	}
	if flips := c.ObservedFlips(0, 10); len(flips) != 0 {
		t.Errorf("aggressor row 10 has %d flips, want 0", len(flips))
	}
	if flips := c.ObservedFlips(0, 12); len(flips) != 0 {
		t.Errorf("aggressor row 12 has %d flips, want 0", len(flips))
	}
}

func TestEvenOffsetsOnly(t *testing.T) {
	cfg := testConfig()
	cfg.Rate150k = 1e-3 // dense, to populate neighbours
	cfg.W3 = 0.35
	cfg.W5 = 0.2
	c := mustChip(t, cfg)
	c.WriteAll(c.Config().WorstPattern)

	victim := 100
	c.BeginTest(7)
	for _, agg := range []int{victim - 1, victim + 1} {
		if err := c.Activate(0, agg, 400_000); err != nil {
			t.Fatal(err)
		}
	}
	// Odd offsets from the victim (= even wordline distance from the
	// aggressors) must never flip (Section 5.4).
	for _, off := range []int{-5, -3, 3, 5} {
		if flips := c.ObservedFlips(0, victim+off); len(flips) != 0 {
			t.Errorf("odd offset %+d has %d flips, want 0", off, len(flips))
		}
	}
}

func TestPairedWordlineAggressors(t *testing.T) {
	cfg := testConfig()
	cfg.PairedWordlines = true
	c := mustChip(t, cfg)
	lo, hi, ok := c.AggressorsFor(100)
	if !ok {
		t.Fatal("no aggressors for row 100")
	}
	// Row 100 is on wordline 50; adjacent wordlines host rows 98/99 and
	// 102/103.
	if lo != 98 || hi != 102 {
		t.Fatalf("aggressors = %d,%d, want 98,102", lo, hi)
	}
	if c.Wordlines() != cfg.Rows/2 {
		t.Fatalf("wordlines = %d, want %d", c.Wordlines(), cfg.Rows/2)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int {
		c := mustChip(t, testConfig())
		c.WriteAll(c.Config().WorstPattern)
		total := 0
		for v := 2; v < c.Rows()-2; v += 7 {
			c.BeginTest(uint64(v))
			lo, hi, ok := c.AggressorsFor(v)
			if !ok {
				continue
			}
			c.Activate(0, lo, 120_000)
			c.Activate(0, hi, 120_000)
			total += len(c.ObservedFlips(0, v))
		}
		return total
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic flip counts: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("sweep found no flips at HC=120k on a 10k-HCFirst chip")
	}
}

func TestOnDieECCHidesSingleBitFlips(t *testing.T) {
	cfg := testConfig()
	cfg.RowBits = 1024
	cfg.OnDieECC = true
	cfg.Type = dram.LPDDR4
	cfg.ClusterP = 0 // isolated cells only → raw flips are single-bit
	cfg.Rate150k = 5e-4
	c := mustChip(t, cfg)
	c.WriteAll(c.Config().WorstPattern)

	raws, observed := 0, 0
	for v := 2; v < c.Rows()-2; v++ {
		c.BeginTest(uint64(v))
		lo, hi, ok := c.AggressorsFor(v)
		if !ok {
			continue
		}
		c.Activate(0, lo, 140_000)
		c.Activate(0, hi, 140_000)
		raws += len(c.rawFlips(0, v))
		observed += len(c.ObservedFlips(0, v))
	}
	if raws == 0 {
		t.Fatal("no raw flips; test is vacuous")
	}
	if observed >= raws {
		t.Fatalf("on-die ECC observed %d flips ≥ raw %d; expected correction to hide most", observed, raws)
	}
}

func TestBetaDerivation(t *testing.T) {
	cfg := testConfig()
	c := mustChip(t, cfg)
	if c.Beta() < 1.2 || c.Beta() > 6 {
		t.Fatalf("beta = %v out of [1.2, 6]", c.Beta())
	}
	// A chip that is not RowHammerable uses the default exponent.
	cfg.HCFirst = 200_000
	c2 := mustChip(t, cfg)
	if c2.Beta() != DefaultBeta {
		t.Fatalf("beta = %v, want default %v", c2.Beta(), DefaultBeta)
	}
}

// refAccounting is the reference for the chip's damage sum: per-wordline
// damage and ACT counts in arrays updated on every activation, where the
// chip sums its activation list when a row is read.
type refAccounting struct {
	c         *Chip
	damage    []float64 // effective hammers per bank*wordlines+wl
	activated []int64   // ACTs per bank*wordlines+wl
}

func newRefAccounting(c *Chip) *refAccounting {
	n := c.Banks() * c.Wordlines()
	return &refAccounting{c: c, damage: make([]float64, n), activated: make([]int64, n)}
}

func (r *refAccounting) reset() {
	clear(r.damage)
	clear(r.activated)
}

func (r *refAccounting) activate(bank, row, times int) {
	if times <= 0 {
		return
	}
	wl := r.c.wordlineOf(row)
	self := bank*r.c.wordlines + wl
	r.activated[self] += int64(times)
	r.damage[self] = 0 // an activation restores the row's own charge
	for _, d := range [...]int{1, 3, 5} {
		w := r.c.couplingWeight(d)
		if w == 0 {
			continue
		}
		for _, nwl := range [...]int{wl - d, wl + d} {
			if nwl < 0 || nwl >= r.c.wordlines {
				continue
			}
			r.damage[bank*r.c.wordlines+nwl] += float64(times) * w
		}
	}
}

// TestDamageMatchesReferenceAccounting drives chips and the reference
// with the same seeded BeginTest/Activate sequences — several banks, edge
// and repeated rows, zero-count activations — over paired and unpaired
// wordlines, three coupling reaches, and on-die ECC on and off. The
// chip's damage must equal the reference's bit for bit on every
// wordline, and TestFlips must equal ObservedFlips over every row of the
// bank, in row order.
func TestDamageMatchesReferenceAccounting(t *testing.T) {
	rng := stats.NewRNG(2005_13121)
	totalFlips := 0
	for _, paired := range []bool{false, true} {
		for _, ecc := range []bool{false, true} {
			for _, w := range [][2]float64{{0, 0}, {0.35, 0}, {0.35, 0.2}} {
				cfg := testConfig()
				cfg.Banks, cfg.Rows = 3, 64
				cfg.Rate150k = 5e-3
				cfg.PairedWordlines, cfg.OnDieECC = paired, ecc
				if ecc {
					cfg.Type = dram.LPDDR4
				}
				cfg.W3, cfg.W5 = w[0], w[1]
				cfg.Seed = rng.Uint64()
				c := mustChip(t, cfg)
				ref := newRefAccounting(c)
				c.WriteAll(cfg.WorstPattern)
				for test := 0; test < 12; test++ {
					c.BeginTest(rng.Uint64())
					ref.reset()
					var rows []int
					for i, n := 0, 1+rng.Intn(5); i < n; i++ {
						bank := rng.Intn(cfg.Banks)
						var row int
						switch k := rng.Intn(4); {
						case k == 0 && len(rows) > 0:
							row = rows[rng.Intn(len(rows))] // repeated row
						case k == 1:
							row = [...]int{0, 1, cfg.Rows - 2, cfg.Rows - 1}[rng.Intn(4)]
						default:
							row = rng.Intn(cfg.Rows)
						}
						rows = append(rows, row)
						times := 0
						if rng.Intn(5) != 0 {
							times = rng.Intn(60_000)
						}
						if err := c.Activate(bank, row, times); err != nil {
							t.Fatal(err)
						}
						ref.activate(bank, row, times)
					}
					for bank := 0; bank < cfg.Banks; bank++ {
						for wl := 0; wl < c.Wordlines(); wl++ {
							key := bank*c.Wordlines() + wl
							e, activated := c.damage(bank, wl)
							if activated != (ref.activated[key] > 0) {
								t.Fatalf("%+v bank %d wl %d: activated %v, reference ACTs %d",
									cfg, bank, wl, activated, ref.activated[key])
							}
							if !activated && math.Float64bits(e) != math.Float64bits(ref.damage[key]) {
								t.Fatalf("%+v bank %d wl %d: damage %v, reference %v",
									cfg, bank, wl, e, ref.damage[key])
							}
						}
						var want []Flip
						for row := 0; row < cfg.Rows; row++ {
							want = append(want, c.ObservedFlips(bank, row)...)
						}
						if got := c.TestFlips(bank); !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v bank %d: TestFlips %v, every row's ObservedFlips %v",
								cfg, bank, got, want)
						}
						totalFlips += len(want)
					}
				}
			}
		}
	}
	if totalFlips == 0 {
		t.Fatal("no test flipped anything; the TestFlips comparison is vacuous")
	}
}

// refRawFlips is the reference for rawFlips: the full per-cell scan of a
// row, with no prune.
func refRawFlips(c *Chip, bank, row int) []int {
	e, activated := c.damage(bank, c.wordlineOf(row))
	if activated || e <= 0 {
		return nil
	}
	var bits []int
	cells := c.rowCells(bank, row)
	for i := range cells {
		cl := &cells[i]
		if !c.eligible(cl, c.pattern, row) {
			continue
		}
		p := c.flipProbability(e, cl.effectiveThreshold(c.pattern))
		if p <= 0 {
			continue
		}
		if c.hammerRand(bank, row, cl.bit, c.nonce) < p {
			bits = append(bits, cl.bit)
		}
	}
	sort.Ints(bits)
	return bits
}

// checkRowFloors requires every row's floor to equal its built row's
// first (smallest) threshold bit for bit, +Inf for a row without cells,
// with the floor drawn before the row is built on one chip and after it
// on a twin; the rows built after their floor must equal the twin's. It
// returns how many rows have a parity cell first.
func checkRowFloors(t *testing.T, cfg Config) (parityFirst int) {
	t.Helper()
	early, late := mustChip(t, cfg), mustChip(t, cfg)
	for bank := 0; bank < cfg.Banks; bank++ {
		for row := 0; row < cfg.Rows; row++ {
			drawn := early.rowFloor(bank, row)
			cells := late.rowCells(bank, row)
			want := math.Inf(1)
			if len(cells) > 0 {
				want = cells[0].threshold
				if cells[0].bit >= cfg.RowBits {
					parityFirst++
				}
			}
			for _, got := range []float64{drawn, late.rowFloor(bank, row)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v bank %d row %d (%d cells, weakest row %v): floor %v, built row's smallest threshold %v",
						cfg, bank, row, len(cells), bank*cfg.Rows+row == early.weakKey, got, want)
				}
			}
			if built := early.rowCells(bank, row); !reflect.DeepEqual(built, cells) {
				t.Fatalf("%+v bank %d row %d: cells built after the floor %v, twin's %v", cfg, bank, row, built, cells)
			}
		}
	}
	return parityFirst
}

// TestPrunedFlipsMatchFullScan checks rawFlips' prune (damage below half
// of the row's floor) against the full scan on seeded random chips —
// on-die ECC on and off, paired wordlines, W3/W5 set and unset, HCFirst
// below and above thresholdCutoff — under every pattern. Each test
// double-side hammers the row of the weakest cell or of a random one at
// a count near half of that cell's threshold or around it, so the prune
// lands on both sides of its boundary, on the weakest row where the
// floor is HCFirst and on others; pruned and full-scan flips must be
// equal on every row. Through ForEachCell it also checks what the prune
// relies on: no threshold below HCFirst, and each row's smallest
// threshold first. checkRowFloors checks every floor against its built
// row, on chips that also cover the draws a floor replayed out of order
// would get wrong: ClusterP 0.8 and 1 (Bernoulli returns without a draw
// at or above 1), β below 2 (math.Pow's branch for exponents above
// 0.5), Poisson's normal approximation (λ ≥ 30 sites per row), parity
// cells and paired wordlines.
func TestPrunedFlipsMatchFullScan(t *testing.T) {
	rng := stats.NewRNG(0x2005_13121)
	var flips, hcPruned, rowPruned, scanned int
	var near [2][2]int // [HCFirst, row's first cell][just below, just above half]
	var normalPoisson, parityFirst int
	for n := 0; n < 24; n++ {
		cfg := testConfig()
		cfg.Banks, cfg.Rows = 2, 64
		cfg.Rate150k = 2e-3
		cfg.OnDieECC, cfg.PairedWordlines = rng.Bool(), rng.Bool()
		if cfg.OnDieECC {
			cfg.Type = dram.LPDDR4
		}
		cfg.W3, cfg.W5 = 0, 0
		if rng.Bool() {
			cfg.W3 = rng.Range(0.05, 0.4)
			if rng.Bool() {
				cfg.W5 = rng.Range(0.02, 0.2)
			}
		}
		cfg.HCFirst = rng.Range(2_000, 150_000)
		if n%4 == 3 {
			cfg.HCFirst = rng.Range(thresholdCutoff, 3*thresholdCutoff)
		}
		switch n % 6 {
		case 1:
			cfg.ClusterP = 0.8
		case 2:
			cfg.ClusterP = 1
		case 3:
			cfg.Beta = rng.Range(1.2, 2)
		case 4:
			cfg.RowBits, cfg.Beta, cfg.HCFirst = 4096, 3, rng.Range(2_000, 4_000)
		}
		cfg.Seed = rng.Uint64()
		c := mustChip(t, cfg)
		if c.siteLambda >= 30 {
			normalPoisson++
		}
		parityFirst += checkRowFloors(t, cfg)

		var all []CellInfo
		firstKey, first := -1, 0.0
		c.ForEachCell(func(ci CellInfo) {
			if ci.Threshold < cfg.HCFirst {
				t.Fatalf("%+v: cell %+v below HCFirst", cfg, ci)
			}
			if key := ci.Bank*cfg.Rows + ci.Row; key != firstKey {
				firstKey, first = key, ci.Threshold
			} else if ci.Threshold < first {
				t.Fatalf("%+v: row %d bank %d: cell threshold %v below the first cell's %v",
					cfg, ci.Row, ci.Bank, ci.Threshold, first)
			}
			all = append(all, ci)
		})

		for p := Pattern(0); p < NumPatterns; p++ {
			c.WriteAll(p)
			for test := 0; test < 6; test++ {
				target := c.WeakestCell()
				if rng.Bool() {
					target = all[rng.Intn(len(all))]
				}
				var hc float64
				switch rng.Intn(3) {
				case 0:
					hc = target.Threshold / 2 // the boundary itself, rounded either way
				case 1:
					hc = target.Threshold / 2 * rng.Range(0.9, 1.1)
				default:
					hc = target.Threshold * rng.Range(0.9, 1.3)
				}
				hc = math.Round(hc) + float64(rng.Intn(3)-1)
				lo, hi, ok := c.AggressorsFor(target.Row)
				if !ok {
					continue
				}
				c.BeginTest(rng.Uint64())
				for _, agg := range []int{lo, hi} {
					if err := c.Activate(target.Bank, agg, int(hc)); err != nil {
						t.Fatal(err)
					}
				}
				for bank := 0; bank < cfg.Banks; bank++ {
					for row := 0; row < cfg.Rows; row++ {
						want := refRawFlips(c, bank, row)
						if got := c.rawFlips(bank, row); !slices.Equal(got, want) {
							t.Fatalf("%+v pattern %v hc %v bank %d row %d: pruned flips %v, full scan %v",
								cfg, p, hc, bank, row, got, want)
						}
						flips += len(want)
						e, activated := c.damage(bank, c.wordlineOf(row))
						rc := c.rowCells(bank, row)
						if activated || e <= 0 || len(rc) == 0 {
							continue
						}
						switch {
						case e/cfg.HCFirst < 0.5:
							hcPruned++
						case e/rc[0].threshold < 0.5:
							rowPruned++
						default:
							scanned++
						}
						for i, r := range [2]float64{e / cfg.HCFirst, e / rc[0].threshold} {
							if r >= 0.45 && r < 0.55 {
								near[i][int(r/0.5)]++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("rows: %d below half of HCFirst, %d below half of their first cell only, %d scanned; within 10%% of half: %v; %d raw flips; %d chips with λ ≥ 30, %d rows with a parity cell first",
		hcPruned, rowPruned, scanned, near, flips, normalPoisson, parityFirst)
	if flips == 0 || hcPruned == 0 || rowPruned == 0 || scanned == 0 ||
		near[0][0] == 0 || near[0][1] == 0 || near[1][0] == 0 || near[1][1] == 0 {
		t.Fatal("the random tests did not reach both sides of the prune on both kinds of row and some flips; the comparison is vacuous")
	}
	if normalPoisson == 0 || parityFirst == 0 {
		t.Fatal("no chip drew its sites from Poisson's normal branch, or no row had a parity cell first; the floor check is vacuous there")
	}
}

// TestPruneBoundaryFlips pins where the prune cuts, which the random
// comparison cannot: just over half a threshold a cell flips with
// probability near 4·10⁻⁸. It hammers rows to the first hammer count at
// or above half their first cell's threshold, written with that cell's
// preferred pattern (affinity 1, so the floor prune is tight; on the
// weakest cell's row the floor is HCFirst), searches a nonce under which
// that cell flips, and requires rawFlips to report the flip.
func TestPruneBoundaryFlips(t *testing.T) {
	rng := stats.NewRNG(0x2005_13121)
	for n := 0; n < 4; n++ {
		cfg := testConfig()
		cfg.Rate150k = 2e-3
		cfg.OnDieECC, cfg.PairedWordlines = n%2 == 1, n >= 2
		if cfg.OnDieECC {
			cfg.Type = dram.LPDDR4
		}
		// An even HCFirst puts the weakest cell's row exactly at half.
		cfg.HCFirst = 2 * math.Round(rng.Range(1_000, 75_000))
		cfg.Seed = rng.Uint64()
		c := mustChip(t, cfg)
		rows := []int{c.WeakestCell().Row}
		for len(rows) < 3 {
			if row := rng.Intn(cfg.Rows); len(c.rowCells(0, row)) > 0 {
				rows = append(rows, row)
			}
		}
		for _, row := range rows {
			lo, hi, ok := c.AggressorsFor(row)
			if !ok {
				continue
			}
			cl := c.rowCells(0, row)[0]
			for p := Pattern(0); p < NumPatterns; p++ {
				if cl.affin[p] == 1 {
					c.WriteAll(p)
				}
			}
			hc := math.Ceil(cl.threshold / 2)
			prob := c.flipProbability(hc, cl.threshold)
			nonce := uint64(0)
			for c.hammerRand(0, row, cl.bit, nonce) >= prob {
				nonce++
			}
			c.BeginTest(nonce)
			if err := c.Activate(0, lo, int(hc)); err != nil {
				t.Fatal(err)
			}
			if err := c.Activate(0, hi, int(hc)); err != nil {
				t.Fatal(err)
			}
			want := refRawFlips(c, 0, row)
			if got := c.rawFlips(0, row); !slices.Contains(want, cl.bit) || !slices.Equal(got, want) {
				t.Fatalf("%+v row %d at hc %v (threshold %v, flip probability %.2g): pruned flips %v, full scan %v, want bit %d",
					cfg, row, hc, cl.threshold, prob, got, want, cl.bit)
			}
		}
	}
}

// passingRows restates rawFlips' prunes over damage and the built rows'
// smallest thresholds, not the floors: it double-side hammers a victim
// hc times and returns the rows TestFlips would read that pass them.
func passingRows(t *testing.T, c *Chip, bank, victim, hc int) []int {
	t.Helper()
	lo, hi, ok := c.AggressorsFor(victim)
	if !ok {
		t.Fatalf("victim %d has no aggressors", victim)
	}
	c.BeginTest(0)
	for _, agg := range []int{lo, hi} {
		if err := c.Activate(bank, agg, hc); err != nil {
			t.Fatal(err)
		}
	}
	k, r := c.rowsPerWordline(), c.BlastRadius()
	var rows []int
	for row := max(lo/k-r, 0) * k; row < (min(hi/k+r, c.Wordlines()-1)+1)*k; row++ {
		e, activated := c.damage(bank, c.wordlineOf(row))
		cells := c.rowCells(bank, row)
		if activated || e <= 0 || e/c.cfg.HCFirst < 0.5 || len(cells) == 0 || e/cells[0].threshold < 0.5 {
			continue
		}
		rows = append(rows, row)
	}
	return rows
}

// TestQuietBelowIsExact checks every victim's quiet bound on seeded chips
// — paired and unpaired wordlines, on-die ECC on and off, reaches 1, 3
// and 5, HCFirst below and above thresholdCutoff — against the prunes
// restated by passingRows: one count below the bound no row the test
// reads passes, and at the bound at least one does. A bound of
// math.MaxInt must leave every row pruned at math.MaxInt−1. Some bounds
// must be set only by rows whose damage has a W5 term (4 or 6 wordlines
// from the victim), so a bound that ignored W5 would fail here.
func TestQuietBelowIsExact(t *testing.T) {
	rng := stats.NewRNG(0x51ee9)
	var finite, never, viaW5 int
	for _, paired := range []bool{false, true} {
		for _, ecc := range []bool{false, true} {
			for _, reach := range []int{1, 3, 5} {
				for _, high := range []bool{false, true} {
					cfg := testConfig()
					cfg.Banks, cfg.Rows = 2, 64
					cfg.Rate150k = 5e-3
					cfg.PairedWordlines, cfg.OnDieECC = paired, ecc
					if ecc {
						cfg.Type = dram.LPDDR4
					}
					if reach >= 3 {
						cfg.W3 = rng.Range(0.3, 0.5)
					}
					if reach == 5 {
						cfg.W5 = rng.Range(0.25, 0.45)
					}
					cfg.HCFirst = rng.Range(2_000, 40_000)
					if high {
						cfg.HCFirst = rng.Range(thresholdCutoff, 2*thresholdCutoff)
					}
					cfg.Seed = rng.Uint64()
					c := mustChip(t, cfg)
					for bank := 0; bank < cfg.Banks; bank++ {
						for v := 0; v < cfg.Rows; v++ {
							q := c.QuietBelow(bank, v)
							if _, _, ok := c.AggressorsFor(v); !ok {
								if q != math.MaxInt {
									t.Fatalf("%+v: edge victim %d has bound %d, want math.MaxInt", cfg, v, q)
								}
								continue
							}
							if q < 1 {
								t.Fatalf("%+v bank %d victim %d: bound %d below 1", cfg, bank, v, q)
							}
							if q == math.MaxInt {
								never++
							} else {
								finite++
								rows := passingRows(t, c, bank, v, q)
								if len(rows) == 0 {
									t.Fatalf("%+v bank %d victim %d: no row passes the prunes at its bound %d", cfg, bank, v, q)
								}
								w5Only := true
								for _, row := range rows {
									if d := abs(c.wordlineOf(row) - c.wordlineOf(v)); d != 4 && d != 6 {
										w5Only = false
									}
								}
								if w5Only {
									viaW5++
								}
							}
							if q > 1 {
								if rows := passingRows(t, c, bank, v, q-1); len(rows) > 0 {
									t.Fatalf("%+v bank %d victim %d: rows %v pass the prunes at %d, below the bound %d",
										cfg, bank, v, rows, q-1, q)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d finite bounds, %d never, %d set by W5 rows only", finite, never, viaW5)
	if finite == 0 || never == 0 || viaW5 == 0 {
		t.Fatal("no finite bound, no unbounded victim or no bound set by W5 rows alone; the check is vacuous")
	}
}

// TestObserverPathDrawsNoFloors pins that the hammer observer's query,
// ThresholdCrossings, never allocates the test path's floor and bound
// caches: over a Table 6 chip the floors alone would cost 2.1 MB per
// simulation.
func TestObserverPathDrawsNoFloors(t *testing.T) {
	c := mustChip(t, testConfig())
	c.WriteAll(c.Config().WorstPattern)
	crossed := 0
	for wl := 0; wl < c.Wordlines(); wl++ {
		flips, _ := c.ThresholdCrossings(0, wl, 3*c.Config().HCFirst)
		crossed += len(flips)
	}
	if crossed == 0 {
		t.Fatal("no threshold crossed; the observer path built no row")
	}
	if c.floors != nil || c.quiet != nil {
		t.Fatalf("ThresholdCrossings allocated %d floors and %d bounds; want none", len(c.floors), len(c.quiet))
	}
}

// TestFirstPassingBeyondExactCounts covers the bounds no test chip
// reaches: estimates past 2^53, where float64 counts are inexact and an
// int conversion could overflow, a floor no count reaches, and a floor
// below one hammer. Each bound must be the smallest count whose damage,
// summed as damage sums it, reaches half the floor.
func TestFirstPassingBeyondExactCounts(t *testing.T) {
	for _, tc := range []struct{ floor, wlo, whi float64 }{
		{4e5, 1e-13, 0},
		{4e5, 0, 3e-14},
		{3e5, 7e-14, 1e-13},
		{1e300, 0.5, 0.5},
		{math.Inf(1), 0.5, 0.5},
		{2e4, 0, 0},
		{0.7, 0.5, 0.5},
		{18_311, 0.5, 0.12},
	} {
		passes := func(hc int) bool {
			e := 0.0
			if tc.wlo != 0 {
				e += float64(hc) * tc.wlo
			}
			if tc.whi != 0 {
				e += float64(hc) * tc.whi
			}
			return e > 0 && e/tc.floor >= 0.5
		}
		q := firstPassing(tc.floor, tc.wlo, tc.whi)
		switch {
		case q < 1:
			t.Errorf("%+v: bound %d below 1", tc, q)
		case q == math.MaxInt && passes(math.MaxInt-1):
			t.Errorf("%+v: bound math.MaxInt, but %d passes", tc, math.MaxInt-1)
		case q < math.MaxInt && (!passes(q) || q > 1 && passes(q-1)):
			t.Errorf("%+v: bound %d, passes there %v and one below %v", tc, q, passes(q), passes(q-1))
		}
	}
}
