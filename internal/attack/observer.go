package attack

import (
	"sort"

	"repro/internal/faultmodel"
)

// FlipEvent is one escaped bit flip: a fault-model cell whose accumulated
// neighbor-activation damage crossed its threshold before any refresh —
// auto, mitigation-triggered, or the row's own activation — restored its
// charge. Cycle is the memory-clock cycle of the crossing activation.
type FlipEvent struct {
	faultmodel.Flip
	Cycle int64
}

// REFWindow summarizes the command stream observed between two consecutive
// REF commands — the granularity at which TRR-style in-DRAM samplers
// operate, and therefore the resolution at which refresh-pause-aware
// attacks (Spec.Phase / Spec.DutyCycle) show their timing structure.
type REFWindow struct {
	// REFCycle is the memory cycle of the REF that closed the window.
	REFCycle int64
	// ACTs counts all activations inside the window; AggressorACTs the
	// subset on watched aggressor rows.
	ACTs          int64
	AggressorACTs int64
	// Flips counts escaped flips recorded inside the window.
	Flips int
}

// Observer is the per-bank hammer accountant that closes the security
// loop: it watches the controller's full command stream (every ACT,
// including mitigation victim refreshes, and the auto-refresh rotation)
// and mirrors, per physical wordline, the effective hammers accumulated
// since that wordline's last charge restoration. Whenever a wordline's
// damage crosses a cell threshold of the attached chip, the flip is
// recorded as escaped — permanently, as a real RowHammer flip persists
// until software rewrites the data.
//
// For chips with on-die ECC, crossings are tracked at raw-cell
// granularity (parity cells included) and filtered through the chip's
// real SEC decoder, so EscapedFlips reports what the system observes
// after correction while RawFlips keeps the pre-correction count.
//
// It implements sim.CommandObserver; drive it manually via OnACT/OnRefresh
// when wiring a bare controller. Not safe for concurrent use.
type Observer struct {
	chip      *faultmodel.Chip
	banks     int
	rows      int
	wordlines int
	ecc       bool

	// damage holds effective hammers per bank*wordlines+wl since the
	// wordline's last restoration.
	damage []float64
	// next caches the smallest cell threshold above the current damage
	// (0 = not yet computed), so the hot path is one comparison.
	next []float64

	// watch flags aggressor rows under rate measurement, dense per
	// bank*rows+row so the per-ACT check is one indexed load.
	watch   []bool
	aggACTs int64

	totalACTs int64

	// ECC bookkeeping: raw crossings seen so far, per (bank,row), so each
	// new raw flip re-runs the row's word decode against the full set.
	rawSeen   map[faultmodel.Flip]struct{}
	rawByRow  map[int64][]int
	rawCount  int
	touchKeys []int64 // reusable scratch for recordRawCrossings

	seen      map[faultmodel.Flip]struct{}
	flips     []FlipEvent
	firstFlip int64

	// Per-REF timeline.
	windows      []REFWindow
	cur          REFWindow
	lastREFCycle int64
}

// NewObserver builds an accountant over the chip. The chip must already
// hold its data pattern (WriteAll) so cell eligibility is defined.
func NewObserver(chip *faultmodel.Chip) *Observer {
	n := chip.Banks() * chip.Wordlines()
	return &Observer{
		chip:         chip,
		banks:        chip.Banks(),
		rows:         chip.Rows(),
		wordlines:    chip.Wordlines(),
		ecc:          chip.Config().OnDieECC,
		damage:       make([]float64, n),
		next:         make([]float64, n),
		watch:        make([]bool, chip.Banks()*chip.Rows()),
		rawSeen:      make(map[faultmodel.Flip]struct{}, 16),
		rawByRow:     make(map[int64][]int, 16),
		seen:         make(map[faultmodel.Flip]struct{}, 16),
		firstFlip:    -1,
		lastREFCycle: -1,
	}
}

// WatchAggressors registers rows whose activations count toward the
// aggressor ACT rate metric.
func (o *Observer) WatchAggressors(refs []RowRef) {
	for _, r := range refs {
		if r.Bank < 0 || r.Bank >= o.banks || r.Row < 0 || r.Row >= o.rows {
			continue // OnACT never accounts out-of-range rows
		}
		o.watch[r.Bank*o.rows+r.Row] = true
	}
}

func (o *Observer) key(bank, wl int) int { return bank*o.wordlines + wl }

// OnACT accounts one activation: the row's own wordline is restored, and
// every coupled wordline accumulates damage and is checked against the
// chip's flip model.
func (o *Observer) OnACT(rank, bank, row int, cycle int64) {
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
	o.damage[o.key(bank, wl)] = 0 // activation restores the row's charge
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

// recordRawCrossings folds new raw cell flips into their rows' flip sets
// and re-runs the on-die ECC decode: only post-correction data flips are
// recorded as escaped, with the cycle of the raw crossing that caused
// them.
func (o *Observer) recordRawCrossings(crossed []faultmodel.Flip, cycle int64) {
	keys := o.touchKeys[:0]
	for _, f := range crossed {
		if _, dup := o.rawSeen[f]; dup {
			continue
		}
		o.rawSeen[f] = struct{}{}
		o.rawCount++
		rk := int64(f.Bank)<<32 | int64(f.Row)
		o.rawByRow[rk] = append(o.rawByRow[rk], f.Bit)
		keys = append(keys, rk)
	}
	// Deterministic ascending order over the touched rows, deduplicated
	// after the sort; the reusable scratch keeps this path allocation-free.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, rk := range keys {
		if i > 0 && rk == keys[i-1] {
			continue
		}
		bank := int(rk >> 32)
		row := int(rk & 0xffffffff)
		for _, obs := range o.chip.ObservedFromRaw(bank, row, o.rawByRow[rk]) {
			o.recordFlip(obs, cycle)
		}
	}
	o.touchKeys = keys[:0]
}

// recordFlip appends a newly escaped data flip (idempotent per cell).
func (o *Observer) recordFlip(f faultmodel.Flip, cycle int64) {
	if _, dup := o.seen[f]; dup {
		return
	}
	o.seen[f] = struct{}{}
	o.flips = append(o.flips, FlipEvent{Flip: f, Cycle: cycle})
	o.cur.Flips++
	if o.firstFlip < 0 {
		o.firstFlip = cycle
	}
	if !o.ecc {
		o.rawCount++
	}
}

// OnRefresh clears the damage of every wordline the auto-refresh rotation
// covers (wrapping at the bank edge, as the DRAM rotation does), and
// closes the current timeline window on the first bank of each REF.
func (o *Observer) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {
	if bank < 0 || bank >= o.banks {
		return
	}
	// One REF covers every bank at the same cycle; close the window once.
	if cycle != o.lastREFCycle {
		o.cur.REFCycle = cycle
		o.windows = append(o.windows, o.cur)
		o.cur = REFWindow{}
		o.lastREFCycle = cycle
	}
	for i := 0; i < rowCount; i++ {
		r := (rowStart + i) % o.rows
		k := o.key(bank, o.chip.WordlineIndex(r))
		o.damage[k] = 0
		// A refreshed wordline restarts from zero damage; the cached next
		// threshold (smallest not-yet-flipped cell) stays valid.
	}
}

// Flips returns the escaped flips in occurrence order.
func (o *Observer) Flips() []FlipEvent { return o.flips }

// EscapedFlips returns the count of distinct escaped bit flips — the
// post-correction count for chips with on-die ECC.
func (o *Observer) EscapedFlips() int { return len(o.flips) }

// RawFlips returns the count of distinct raw cell flips before any on-die
// ECC correction. Equal to EscapedFlips for chips without ECC.
func (o *Observer) RawFlips() int { return o.rawCount }

// Timeline returns the closed per-REF windows in time order. Activity
// after the last observed REF is not included.
func (o *Observer) Timeline() []REFWindow { return o.windows }

// FirstFlipCycle returns the memory cycle of the first escaped flip, or
// -1 when none escaped.
func (o *Observer) FirstFlipCycle() int64 { return o.firstFlip }

// AggressorACTs returns activations observed on watched aggressor rows.
func (o *Observer) AggressorACTs() int64 { return o.aggACTs }

// TotalACTs returns all activations observed.
func (o *Observer) TotalACTs() int64 { return o.totalACTs }

// Damage returns the currently accumulated effective hammers on a row's
// wordline (for tests and diagnostics).
func (o *Observer) Damage(bank, row int) float64 {
	return o.damage[o.key(bank, o.chip.WordlineIndex(row))]
}
