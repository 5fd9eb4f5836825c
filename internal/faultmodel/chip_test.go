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

// TestPrunedFlipsMatchFullScan checks rawFlips' two prunes (damage below
// half of HCFirst, and below half of the row's first cell's threshold)
// against the full scan on seeded random chips — on-die ECC on and off,
// paired wordlines, W3/W5 set and unset, HCFirst below and above
// thresholdCutoff — under every pattern. Each test double-side hammers
// the row of the weakest cell or of a random one at a count near half of
// that cell's threshold or around it, so both prunes land on both sides
// of their boundary; pruned and full-scan flips must be equal on every
// row. Through ForEachCell it also checks what the prunes rely on: no
// threshold below HCFirst, and each row's smallest threshold first.
func TestPrunedFlipsMatchFullScan(t *testing.T) {
	rng := stats.NewRNG(0x2005_13121)
	var flips, floorPruned, rowPruned, scanned int
	var near [2][2]int // [HCFirst, row's first cell][just below, just above half]
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
		cfg.Seed = rng.Uint64()
		c := mustChip(t, cfg)

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
							floorPruned++
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
	t.Logf("rows: %d pruned by HCFirst, %d by their first cell, %d scanned; within 10%% of half: %v; %d raw flips",
		floorPruned, rowPruned, scanned, near, flips)
	if flips == 0 || floorPruned == 0 || rowPruned == 0 || scanned == 0 ||
		near[0][0] == 0 || near[0][1] == 0 || near[1][0] == 0 || near[1][1] == 0 {
		t.Fatal("the random tests did not reach both sides of both prunes and some flips; the comparison is vacuous")
	}
}

// TestPruneBoundaryFlips pins where the prunes cut, which the random
// comparison cannot: just over half a threshold a cell flips with
// probability near 4·10⁻⁸. It hammers rows to the first hammer count at
// or above half their first cell's threshold, written with that cell's
// preferred pattern (affinity 1, so the row-level prune is tight; on the
// weakest cell's row the HCFirst prune is tight too), searches a nonce
// under which that cell flips, and requires rawFlips to report the flip.
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
