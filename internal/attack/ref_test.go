package attack

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faultmodel"
)

// refObserver is the hammer observer as it stood before its wordlines
// moved into pages allocated on first touch: damage and next are dense
// over bank*wordlines+wl and watch is dense over bank*rows+row, so
// building one for the Table 6 chip allocates 4.46 MB. It is kept as the
// oracle of TestObserverMatchesReference and is built only by the tests.
// The flip, on-die ECC and timeline bookkeeping is the production
// Observer's, unchanged, embedded.
type refObserver struct {
	*Observer
	damage, next []float64
	watch        []bool
}

func newRefObserver(chip *faultmodel.Chip) *refObserver {
	n := chip.Banks() * chip.Wordlines()
	return &refObserver{
		Observer: NewObserver(chip),
		damage:   make([]float64, n),
		next:     make([]float64, n),
		watch:    make([]bool, chip.Banks()*chip.Rows()),
	}
}

func (o *refObserver) WatchAggressors(refs []RowRef) {
	for _, r := range refs {
		if r.Bank < 0 || r.Bank >= o.banks || r.Row < 0 || r.Row >= o.rows {
			continue
		}
		o.watch[r.Bank*o.rows+r.Row] = true
	}
}

func (o *refObserver) OnACT(rank, bank, row int, cycle int64) {
	if bank < 0 || bank >= o.banks || row < 0 || row >= o.rows {
		return
	}
	o.totalACTs++
	o.cur.ACTs++
	if o.watch[bank*o.rows+row] {
		o.aggACTs++
		o.cur.AggressorACTs++
	}
	wl := o.chip.WordlineIndex(row)
	o.damage[o.key(bank, wl)] = 0
	o.chip.ForEachCoupledWordline(wl, func(n int, w float64) {
		k := o.key(bank, n)
		o.damage[k] += w
		if o.next[k] == 0 {
			_, t := o.chip.ThresholdCrossings(bank, n, 0)
			o.next[k] = t
		}
		if o.damage[k] < o.next[k] {
			return
		}
		crossed, t := o.chip.ThresholdCrossings(bank, n, o.damage[k])
		o.next[k] = t
		if o.ecc {
			o.recordRawCrossings(crossed, cycle)
		} else {
			for _, f := range crossed {
				o.recordFlip(f, cycle)
			}
		}
	})
}

func (o *refObserver) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {
	if bank < 0 || bank >= o.banks {
		return
	}
	if cycle != o.lastREFCycle {
		o.cur.REFCycle = cycle
		o.windows = append(o.windows, o.cur)
		o.cur = REFWindow{}
		o.lastREFCycle = cycle
	}
	for i := 0; i < rowCount; i++ {
		r := (rowStart + i) % o.rows
		o.damage[o.key(bank, o.chip.WordlineIndex(r))] = 0
	}
}

func (o *refObserver) Damage(bank, row int) float64 {
	return o.damage[o.key(bank, o.chip.WordlineIndex(row))]
}

// TestObserverMatchesReference drives the paged observer and refObserver
// in lockstep over seeded random command streams: ACTs that hammer a few
// victims' neighbourhoods until cells flip, scattered ACTs including
// out-of-range banks and rows, REF rotations of every bank that wrap at
// the bank edge, and aggressor watches, some out of range. Three chips
// take the paths that differ: a plain one whose 1,000-row banks make
// pages straddle banks, an on-die-ECC one, and one with paired
// wordlines and distance-3 and -5 coupling. The counters must agree
// after every command, and Flips, Timeline and every row's Damage at
// checkpoints and at the end.
func TestObserverMatchesReference(t *testing.T) {
	const banks, rows = 4, 1000
	chips := []struct {
		name string
		cfg  faultmodel.Config
	}{
		{"plain", faultmodel.Config{}},
		{"on-die-ecc", faultmodel.Config{OnDieECC: true}},
		{"paired-far", faultmodel.Config{PairedWordlines: true, W3: 0.1, W5: 0.05}},
	}
	for _, tc := range chips {
		var flips, raw, windows, agg int
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := tc.cfg
			cfg.Name, cfg.Banks, cfg.Rows, cfg.RowBits = tc.name, banks, rows, 512
			cfg.HCFirst, cfg.Rate150k, cfg.WorstPattern, cfg.Seed = 60, 1e-3, faultmodel.RowStripe0, seed
			chip, err := faultmodel.NewChip(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chip.WriteAll(faultmodel.RowStripe0)
			obs, ref := NewObserver(chip), newRefObserver(chip)

			rng := rand.New(rand.NewPCG(seed, 0x0b5))
			// The victims are the rows of the chip's four weakest cells.
			var weak []faultmodel.CellInfo
			chip.ForEachCell(func(c faultmodel.CellInfo) { weak = append(weak, c) })
			slices.SortFunc(weak, func(a, b faultmodel.CellInfo) int { return cmp.Compare(a.Threshold, b.Threshold) })
			victims := make([]RowRef, 4)
			for i := range victims {
				victims[i] = RowRef{Bank: weak[i].Bank, Row: weak[i].Row}
			}
			refStart, cycle := rng.IntN(rows), int64(0)
			compare := func(step int, full bool) {
				t.Helper()
				if obs.EscapedFlips() != ref.EscapedFlips() || obs.RawFlips() != ref.RawFlips() ||
					obs.TotalACTs() != ref.TotalACTs() || obs.AggressorACTs() != ref.AggressorACTs() ||
					obs.FirstFlipCycle() != ref.FirstFlipCycle() || len(obs.Timeline()) != len(ref.Timeline()) {
					t.Fatalf("%s seed %d step %d: counters diverged: flips %d/%d raw %d/%d acts %d/%d agg %d/%d",
						tc.name, seed, step, obs.EscapedFlips(), ref.EscapedFlips(), obs.RawFlips(), ref.RawFlips(),
						obs.TotalACTs(), ref.TotalACTs(), obs.AggressorACTs(), ref.AggressorACTs())
				}
				if !full {
					return
				}
				if !reflect.DeepEqual(obs.Flips(), ref.Flips()) || !reflect.DeepEqual(obs.Timeline(), ref.Timeline()) {
					t.Fatalf("%s seed %d step %d: flips or timeline diverged", tc.name, seed, step)
				}
				for b := 0; b < banks; b++ {
					for r := 0; r < rows; r++ {
						if got, want := obs.Damage(b, r), ref.Damage(b, r); got != want {
							t.Fatalf("%s seed %d step %d: Damage(%d, %d) = %v, want %v", tc.name, seed, step, b, r, got, want)
						}
					}
				}
			}
			for step := 0; step < 6_000; step++ {
				cycle += 1 + rng.Int64N(60)
				switch op := rng.IntN(100); {
				case op < 92:
					v := victims[rng.IntN(len(victims))]
					bank, row := v.Bank, v.Row+[]int{-11, -7, -5, -3, -2, 2, 3, 5, 7, 11}[rng.IntN(10)]
					if lo, hi, ok := chip.AggressorsFor(v.Row); ok && rng.IntN(3) != 0 {
						row = []int{lo, hi}[rng.IntN(2)]
					}
					if rng.IntN(5) == 0 {
						bank, row = rng.IntN(banks+2)-1, rng.IntN(rows+4)-2
					}
					obs.OnACT(0, bank, row, cycle)
					ref.OnACT(0, bank, row, cycle)
				case op < 98:
					n := []int{1, 2, 4, 8}[rng.IntN(4)]
					for b := 0; b < banks; b++ {
						obs.OnRefresh(0, b, refStart, n, cycle)
						ref.OnRefresh(0, b, refStart, n, cycle)
					}
					if rng.IntN(8) == 0 {
						obs.OnRefresh(0, banks, refStart, n, cycle)
						ref.OnRefresh(0, banks, refStart, n, cycle)
					}
					refStart = (refStart + n) % rows
				default:
					refs := []RowRef{
						{Bank: rng.IntN(banks), Row: rng.IntN(rows)},
						{Bank: rng.IntN(banks+2) - 1, Row: rng.IntN(rows+4) - 2},
					}
					obs.WatchAggressors(refs)
					ref.WatchAggressors(refs)
				}
				compare(step, step%1_000 == 999)
			}
			compare(6_000, true)
			flips += obs.EscapedFlips()
			raw += obs.RawFlips() - obs.EscapedFlips()
			windows += len(obs.Timeline())
			agg += int(obs.AggressorACTs())
		}
		if flips == 0 || (raw == 0) == tc.cfg.OnDieECC || windows == 0 || agg == 0 {
			t.Fatalf("%s: the streams missed a path: %d escaped flips, %d raw flips corrected, %d REF windows, %d aggressor ACTs",
				tc.name, flips, raw, windows, agg)
		}
		t.Logf("%s: %d escaped flips, %d raw flips corrected, %d REF windows, %d aggressor ACTs", tc.name, flips, raw, windows, agg)
	}
}
