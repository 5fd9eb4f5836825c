// Package attack is the adversarial side of the Section 6 evaluation the
// paper never runs: it synthesizes real hammering access streams as
// first-class workload traces (single-sided, double-sided, TRRespass-style
// many-sided, scattered multi-bank, and decoy-interleaved), and couples
// the memory controller's ACT/REF command stream to a calibrated
// faultmodel.Chip through a per-bank hammer-accounting observer — so a
// mixed attacker+benign simulation can report whether a mitigation
// mechanism actually prevents bit flips, not just what it costs.
package attack

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Kind identifies an attack access pattern.
type Kind string

const (
	// SingleSided alternates one aggressor adjacent to the victim with a
	// far conflict row in the same bank (the original RowHammer loop: the
	// conflict row forces the aggressor's row buffer closed so every
	// access costs an ACT).
	SingleSided Kind = "single-sided"
	// DoubleSided alternates the two rows flanking the victim — the
	// paper's Algorithm 1 worst case.
	DoubleSided Kind = "double-sided"
	// ManySided cycles N aggressors spaced two rows apart (TRRespass-style
	// n-sided): every even row between them is a victim, and the wide
	// rotation defeats small activation-tracking tables.
	ManySided Kind = "many-sided"
	// Scattered runs double-sided pairs in several banks at once,
	// exploiting bank parallelism for a higher aggregate ACT rate and
	// spreading load across per-bank trackers.
	Scattered Kind = "scattered"
	// Decoy interleaves double-sided hammering with reads to pseudo-random
	// far rows, polluting frequency-based trackers (ProHIT/MRLoc tables,
	// Bloom filters) with innocuous hot candidates.
	Decoy Kind = "decoy"
)

// Kinds lists the attack pattern catalog in evaluation order.
func Kinds() []Kind {
	return []Kind{SingleSided, DoubleSided, ManySided, Scattered, Decoy}
}

// Spec parameterizes one synthesized attack stream. The zero Spec plus a
// Kind is valid; normalized() fills the per-kind defaults. Specs are
// JSON-serializable so the experiment layer can carry attacker pacing
// inside declarative experiment specs.
type Spec struct {
	Kind Kind `json:"kind,omitempty"`

	// Sides is the aggressor count for ManySided (default 8).
	Sides int `json:"sides,omitempty"`
	// Banks is the bank spread for Scattered (default 4, clamped to the
	// geometry).
	Banks int `json:"banks,omitempty"`
	// DecoyRatio is the fraction of accesses aimed at decoy rows for
	// Decoy (default 0.5).
	DecoyRatio float64 `json:"decoy_ratio,omitempty"`
	// Gap is the non-memory instruction count between accesses; it sets
	// the attacker's memory-level parallelism through the core's
	// instruction window (window/(Gap+1) outstanding loads).
	Gap int `json:"gap,omitempty"`
	// Records is the memory-record count of one trace pass (replayed
	// cyclically; default 2048).
	Records int `json:"records,omitempty"`

	// DutyCycle in [0,1) paces the stream against the refresh interval:
	// the attacker hammers for DutyCycle×PeriodCycles, then idles through
	// the rest of the period in non-memory instructions — the structure
	// real refresh-synchronized attacks use to dodge TRR sampling windows
	// around REF commands. 0 (the default) hammers continuously; any
	// value outside [0,1) is rejected by Validate/Synthesize.
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	// Phase in [0,1) shifts where within each period the burst falls (the
	// first burst is shortened by Phase of a burst, moving every later
	// burst boundary by the same amount). Only meaningful together with
	// DutyCycle pacing: the shift is part of the periodic structure, so
	// it survives the trace's cyclic replay instead of re-applying a
	// one-time delay every pass. Values outside [0,1) are rejected by
	// Validate/Synthesize.
	Phase float64 `json:"phase,omitempty"`
	// PeriodCycles is the pacing period in memory-clock cycles (default:
	// the DDR4-2400 tREFI, 9363).
	PeriodCycles int64 `json:"period_cycles,omitempty"`

	Seed uint64 `json:"seed,omitempty"`
}

// Burst pacing converts memory-clock cycles into trace structure through
// two approximations of the Table 6 system: an idle memory cycle costs
// the 4 GHz, 4-wide core idleInstsPerMemCycle gap instructions, and one
// serialized hammering record costs serialACTCycles at the controller.
const (
	idleInstsPerMemCycle = 13 // ceil(4000/1200 CPU cycles) × 4-wide issue
	defaultPeriodCycles  = 9363
	// serialGapInsts spaces the records inside a paced burst so the
	// hammering is serialized, like the flush+dependency loops of real
	// refresh-synchronized attacks: any value past the 128-entry
	// instruction window guarantees at most one outstanding load (younger
	// instructions cannot retire past the in-flight load, so issue stalls
	// at window-full until it returns). Serialization is what keeps every
	// burst access an activation — a burst issued with full memory-level
	// parallelism lands as one batch in an idle controller queue, where
	// FR-FCFS merges the alternating-row accesses into row-buffer hits.
	serialGapInsts = 200
	// serialACTCycles is the measured cost of one serialized flush+load
	// round trip (uncached load latency plus the trailing gap issue) on
	// the Table 6 system; paced bursts are sized with it so a burst's
	// wall-clock length comes out at DutyCycle×PeriodCycles. It is
	// deliberately a touch above the true cost: the attack's natural
	// period then runs 2-3% short of the refresh interval, and the REF
	// stall absorbs the slack each interval — the stream self-locks to
	// the refresh schedule exactly as real refresh-synchronized attacks
	// do, instead of drifting through it.
	serialACTCycles = 62
)

// Target anchors an attack at a victim row (for Scattered, the first of
// the attacked banks).
type Target struct {
	Bank, Row int
}

// RowRef names one (bank, row) the synthesized stream deliberately
// activates; the observer watches these to measure the achieved
// aggressor ACT rate.
type RowRef struct {
	Bank, Row int
}

// Validate rejects pacing parameters outside their domain. duty_cycle
// and phase must both lie in [0,1): 0 disables pacing, values in (0,1)
// pace the stream, and anything else is an error rather than a silent
// no-op (a spec that asked for pacing and didn't get it would evaluate
// the wrong attack).
func (s Spec) Validate() error {
	if s.DutyCycle < 0 || s.DutyCycle >= 1 {
		return fmt.Errorf("attack: duty_cycle %g outside [0,1) (0 disables pacing)", s.DutyCycle)
	}
	if s.Phase < 0 || s.Phase >= 1 {
		return fmt.Errorf("attack: phase %g outside [0,1) (0 disables the shift)", s.Phase)
	}
	if s.Phase > 0 && s.DutyCycle == 0 {
		return fmt.Errorf("attack: phase %g without duty_cycle pacing would be silently ignored; set duty_cycle too", s.Phase)
	}
	return nil
}

func (s Spec) normalized() Spec {
	if s.Sides <= 0 {
		s.Sides = 8
	}
	if s.Banks <= 0 {
		s.Banks = 4
	}
	if s.DecoyRatio <= 0 {
		s.DecoyRatio = 0.5
	}
	if s.Gap <= 0 {
		// Maximum memory-level parallelism (64 outstanding loads through
		// the 128-entry window): a real attacker issues independent loads
		// so its requests dominate the controller's queue. Raising Gap
		// models a politer attacker who cedes head-of-line share.
		s.Gap = 1
	}
	if s.Records <= 0 {
		s.Records = 2048
	}
	if s.PeriodCycles <= 0 {
		s.PeriodCycles = defaultPeriodCycles
	}
	return s
}

// paceRecords applies the Phase/DutyCycle timing structure: every burst of
// hammering records is followed by an idle stretch (gap instructions on
// the record that opens the next burst) sized so the stream is active for
// roughly DutyCycle of each period. Phase shortens the first burst,
// shifting every later burst boundary by Phase of a burst — a periodic
// rearrangement, so cyclic replay preserves it. The fractional part of
// each period's idle-instruction budget carries over to the next period,
// so the achieved active fraction does not drift from the requested one
// however many periods the stream spans.
//
// Burst records are serialized to one access per row cycle (the
// flush+dependency structure real refresh-synchronized attacks use):
// burst sizing assumes each record costs an activation, and a burst
// issued with full memory-level parallelism would instead land as one
// batch in an idle controller queue, where FR-FCFS merges the
// alternating-row accesses into row-buffer hits — a couple of ACTs per
// burst, which is no hammering at all.
func (s Spec) paceRecords(recs []trace.Record) error {
	if len(recs) == 0 || s.DutyCycle <= 0 || s.DutyCycle >= 1 {
		return nil
	}
	burst := int(s.DutyCycle * float64(s.PeriodCycles) / serialACTCycles)
	if burst < 1 {
		burst = 1
	}
	if len(recs) <= burst {
		// Shorter traces would carry no idle stretch at all — cyclic
		// replay of an all-burst trace is a full-rate attack, the silent
		// wrong-answer this validation exists to prevent.
		return fmt.Errorf("attack: %d records cannot express duty_cycle %g (one burst is %d records); raise records or lower duty_cycle",
			len(recs), s.DutyCycle, burst)
	}
	for i := range recs {
		recs[i].Gap += serialGapInsts
	}
	idlePerPeriod := (1 - s.DutyCycle) * float64(s.PeriodCycles) * idleInstsPerMemCycle
	first := burst
	if s.Phase > 0 && s.Phase < 1 {
		// Round the shift up to at least one record: on small bursts a
		// truncated-to-zero shift used to drop the requested phase
		// entirely.
		shift := int(s.Phase * float64(burst))
		if shift < 1 {
			shift = 1
		}
		first = burst - shift
		if first < 1 {
			first = 1
		}
	}
	carry := 0.0
	for i := first; i < len(recs); i += burst {
		carry += idlePerPeriod
		idle := int(carry)
		carry -= float64(idle)
		recs[i].Gap += idle
	}
	return nil
}

// MinRows is the smallest bank, in rows, that Synthesize lays a pattern
// out in.
const MinRows = 16

// Synthesize builds the attacker's access stream against the target as a
// first-class trace (uncached flush+load records, fixed addresses every
// pass) plus the list of rows it deliberately hammers. The victim row is
// clamped away from the bank edges so every pattern has room for its
// aggressors.
func (s Spec) Synthesize(geo dram.Geometry, t Target) (*trace.Trace, []RowRef, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	s = s.normalized()
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		return nil, nil, err
	}
	rows := geo.Rows
	if rows < MinRows {
		return nil, nil, fmt.Errorf("attack: geometry too small (%d rows)", rows)
	}
	if t.Bank < 0 || t.Bank >= geo.Banks() {
		return nil, nil, fmt.Errorf("attack: target bank %d out of range", t.Bank)
	}
	victim := t.Row
	if victim < 1 {
		victim = 1
	}
	if victim > rows-2 {
		victim = rows - 2
	}

	// Per-pattern aggressor sets, as (bank, row) pairs cycled in order.
	var refs []RowRef
	switch s.Kind {
	case SingleSided:
		far := (victim + rows/2) % rows
		if far < 1 {
			far = 1
		}
		refs = []RowRef{
			{Bank: t.Bank, Row: victim - 1},
			{Bank: t.Bank, Row: far},
		}
	case DoubleSided:
		refs = []RowRef{
			{Bank: t.Bank, Row: victim - 1},
			{Bank: t.Bank, Row: victim + 1},
		}
	case ManySided:
		n := s.Sides
		if max := rows / 2; n > max {
			n = max
		}
		// Aggressors sit two rows apart on the opposite parity of the
		// victim, so the victim is flanked but never activated by its own
		// attack (an ACT on the victim row would reset its damage). Edge
		// clamping slides the window by even steps only, preserving that
		// parity.
		lo := victim - 1
		if hi := lo + 2*(n-1); hi > rows-1 {
			shift := hi - (rows - 1)
			shift += shift & 1
			lo -= shift
		}
		for r := lo; r <= rows-1 && len(refs) < n; r += 2 {
			if r >= 0 {
				refs = append(refs, RowRef{Bank: t.Bank, Row: r})
			}
		}
	case Scattered:
		banks := s.Banks
		if banks > geo.Banks() {
			banks = geo.Banks()
		}
		for b := 0; b < banks; b++ {
			bank := (t.Bank + b) % geo.Banks()
			refs = append(refs,
				RowRef{Bank: bank, Row: victim - 1},
				RowRef{Bank: bank, Row: victim + 1})
		}
	case Decoy:
		refs = []RowRef{
			{Bank: t.Bank, Row: victim - 1},
			{Bank: t.Bank, Row: victim + 1},
		}
	default:
		return nil, nil, fmt.Errorf("attack: unknown pattern %q", s.Kind)
	}

	rng := stats.NewRNG(s.Seed ^ 0xa77ac4)
	tr := &trace.Trace{Name: "attack-" + string(s.Kind)}
	cols := geo.Columns
	colOf := make(map[RowRef]int, len(refs))
	next := 0
	for i := 0; i < s.Records; i++ {
		ref := refs[next%len(refs)]
		next++
		if s.Kind == Decoy && rng.Bernoulli(s.DecoyRatio) {
			// A decoy read to a far row in the same bank: outside the
			// victim's blast radius but hot enough to occupy trackers.
			ref = RowRef{Bank: t.Bank, Row: decoyRow(rng, victim, rows)}
			next-- // the displaced aggressor access happens next record
		}
		col := colOf[ref] % cols
		colOf[ref] = col + 1
		addr := mapper.AddressOf(dram.Address{Bank: ref.Bank, Row: ref.Row, Col: col})
		tr.Records = append(tr.Records, trace.Record{Gap: s.Gap, Addr: addr, NoCache: true})
	}
	if err := s.paceRecords(tr.Records); err != nil {
		return nil, nil, err
	}
	return tr, refs, nil
}

// decoyRow picks a pseudo-random row outside the victim's neighborhood.
// The exclusion band shrinks with the bank so candidates always exist,
// even for the tiny geometries tests use.
func decoyRow(rng *stats.RNG, victim, rows int) int {
	band := 8
	if max := rows/2 - 2; band > max {
		band = max
	}
	for {
		r := 1 + rng.Intn(rows-2)
		if r < victim-band || r > victim+band {
			return r
		}
	}
}
