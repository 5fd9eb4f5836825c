package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/mitigation"
)

// The trr-dodge experiment is the ROADMAP's duty-cycle security study:
// in-DRAM TRR-style samplers are the deployed reality at low HCfirst,
// and the RowHammer literature documents that they are dodged by attacks
// that pace their activations around the sampler's observation windows.
// This experiment quantifies the dodge end to end: a (sampler rate ×
// table size × pattern × duty-cycle × phase) grid of mixed
// attacker+benign simulations against the mitigation.TRR sampler,
// reporting escaped flips, the sampler's effort (samples taken, victim
// refreshes issued, bandwidth overhead) and the per-REF timeline
// evidence — aggressor activity per refresh interval and how little of
// it the sampler ever observed. Duty cycle 0 is the full-rate baseline
// every paced point is compared against: the dodge is demonstrated when
// a paced attack escapes flips that full-rate hammering cannot.

// TRRDodgeParams is the parameter block of the trr-dodge experiment.
// Zero fields take the defaults normalized resolves.
type TRRDodgeParams struct {
	// Patterns is the attack-pattern axis (default double-sided).
	Patterns []attack.Kind `json:"patterns,omitempty"`
	// DutyCycles is the pacing axis, each value in [0,1): 0 is the
	// full-rate baseline, (0,1) hammers that fraction of each refresh
	// interval and idles through the rest.
	DutyCycles []float64 `json:"duty_cycles,omitempty"`
	// Phases shifts where within each interval the burst falls, each
	// value in [0,1). Only paced (duty > 0) cells take the phase axis;
	// the full-rate baseline runs once per (pattern, sampler) point.
	Phases []float64 `json:"phases,omitempty"`
	// SampleRates is the sampler's probability axis, each value in (0,1].
	SampleRates []float64 `json:"sample_rates,omitempty"`
	// TableSizes is the sampler's per-bank entry-count axis.
	TableSizes []int `json:"table_sizes,omitempty"`

	// HCFirst is the victim chip's weakest-cell hammer count (default
	// 256 — below the paper's 4.8k-chip tail, where sampling defenses are
	// the deployed reality).
	HCFirst int `json:"hc,omitempty"`

	// BenignCores adds benign cores next to the attacker. The default is
	// 0 (attacker-only): a statically paced trace cannot re-synchronize
	// with the refresh schedule the way real refresh-aware attacks do, so
	// benign queue contention stretches its bursts and smears them across
	// the sampler window — the attacker-only run models the adaptive
	// attacker's achievable alignment. Setting this >0 measures exactly
	// that degradation (and the benign throughput under a paced attack).
	BenignCores   int   `json:"benign_cores,omitempty"`
	TraceRecords  int   `json:"trace_records,omitempty"`
	MemCycles     int64 `json:"mem_cycles,omitempty"`
	Rows          int   `json:"rows,omitempty"`
	AttackRecords int   `json:"attack_records,omitempty"`
	ECC           bool  `json:"ecc,omitempty"`
}

// Validate rejects out-of-domain axis values at spec decode: unknown
// patterns, duty cycles and phases outside [0,1), phases no cell takes
// (every duty cycle is the full-rate 0), sample rates outside (0,1],
// non-positive table sizes, a negative HCfirst, and a shape no run can
// use (sweepShape.validate).
func (p *TRRDodgeParams) Validate() error {
	if err := checkAxes(nil, nil, p.Patterns, nil); err != nil {
		return err
	}
	if err := p.shape().validate(); err != nil {
		return err
	}
	for _, d := range p.DutyCycles {
		if d < 0 || d >= 1 {
			return fmt.Errorf("core: trr-dodge duty_cycles value %g outside [0,1) (0 is the full-rate baseline)", d)
		}
	}
	if len(p.Phases) > 0 && len(p.DutyCycles) > 0 && !slices.ContainsFunc(p.DutyCycles, func(d float64) bool { return d > 0 }) {
		return fmt.Errorf("core: trr-dodge phases apply only to paced cells, and every duty_cycles value is 0 (omit phases)")
	}
	for _, ph := range p.Phases {
		if ph < 0 || ph >= 1 {
			return fmt.Errorf("core: trr-dodge phases value %g outside [0,1)", ph)
		}
	}
	for _, r := range p.SampleRates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("core: trr-dodge sample_rates value %g outside (0,1]", r)
		}
	}
	for _, ts := range p.TableSizes {
		if ts < 1 {
			return fmt.Errorf("core: trr-dodge table_sizes value %d must be positive", ts)
		}
	}
	if p.HCFirst < 0 {
		return fmt.Errorf("core: trr-dodge hc %d must not be negative", p.HCFirst)
	}
	return nil
}

func (p TRRDodgeParams) shape() sweepShape {
	return sweepShape{benignCores: p.BenignCores, traceRecords: p.TraceRecords, memCycles: p.MemCycles,
		rows: p.Rows, attackRecords: p.AttackRecords, ecc: p.ECC}
}

// normalized resolves the defaults: one sampler configuration, the
// full-rate baseline plus two duty cycles at two phases each, against the
// highest-pressure pattern.
func (p TRRDodgeParams) normalized() TRRDodgeParams {
	if len(p.Patterns) == 0 {
		p.Patterns = []attack.Kind{attack.DoubleSided}
	}
	if len(p.DutyCycles) == 0 {
		p.DutyCycles = []float64{0, 0.25, 0.5}
	}
	if len(p.Phases) == 0 {
		p.Phases = []float64{0, 0.5}
	}
	if len(p.SampleRates) == 0 {
		p.SampleRates = []float64{0.5}
	}
	if len(p.TableSizes) == 0 {
		p.TableSizes = []int{4}
	}
	if p.HCFirst <= 0 {
		p.HCFirst = 256
	}
	if p.TraceRecords <= 0 {
		p.TraceRecords = 2_000
	}
	if p.MemCycles <= 0 {
		p.MemCycles = 3_000_000
	}
	return p
}

// DodgePoint is one grid cell's outcome: the attack's pacing and the
// sampler's configuration, security results, the sampler's effort, and
// the per-REF timeline evidence of the dodge.
type DodgePoint struct {
	Pattern    attack.Kind
	DutyCycle  float64 // 0 = full-rate baseline
	Phase      float64
	SampleRate float64
	TableSize  int
	HCFirst    int

	// Security outcome.
	EscapedFlips      int
	RawFlips          int
	TimeToFirstFlipMS float64 // -1 when no flip escaped
	AggressorACTs     int64
	AggACTsPerSec     float64

	// Per-REF timeline evidence (attack.Observer windows): how much
	// aggressor activity each refresh interval carried, and in how many
	// intervals flips landed. A dodging cell shows sustained per-window
	// aggressor activity and escaped flips while SamplerSamples stays
	// near zero — the attack was loud, the sampler just never looked at
	// the right time.
	REFWindows        int
	MeanWindowAggACTs float64
	MaxWindowAggACTs  int64
	FlipWindows       int

	// Sampler effort: activations the sampler observed and neighbour
	// refreshes its REFs issued (the refresh overhead of the defense).
	SamplerSamples   int64
	SamplerRefreshes int64

	// Performance.
	BenignPerfPct float64
	OverheadPct   float64
}

// TRRDodge is the full study result.
type TRRDodge struct {
	Points    []DodgePoint
	MemCycles int64
	WallMS    float64
	Benign    string
	ECC       bool
}

// fmtAxis renders a float axis value for task keys and reports,
// shortest-round-trip form so keys are stable and readable.
func fmtAxis(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// trrDodgeGrid enumerates the (sampler × pattern × pacing) grid. The
// full-rate baseline (duty 0) appears once per (sampler, pattern) point
// — the phase axis only multiplies paced cells. The stream seed (and
// with it the victim chip) derives from the pattern's identity, not its
// position in the axis, so every sampler configuration and every pacing
// faces the same chip and the same base access stream for a given
// pattern — across runs with differently composed pattern lists too.
func trrDodgeGrid(p TRRDodgeParams, seed uint64) (keys []string, cells []sweepCell) {
	add := func(rate float64, tbl int, pat attack.Kind, duty, phase float64) {
		cells = append(cells, sweepCell{
			Mech: MechTRR, Sched: SchedFRFCFS, Pattern: pat, HC: p.HCFirst,
			duty: duty, phase: phase,
			trr:        &mitigation.TRRConfig{SampleRate: rate, TableSize: tbl},
			streamSeed: engine.DeriveSeed(seed^0xd0d9e, keyHash(string(pat))),
		})
		keys = append(keys, fmt.Sprintf("rate=%s/table=%d/pat=%s/duty=%s/phase=%s",
			fmtAxis(rate), tbl, pat, fmtAxis(duty), fmtAxis(phase)))
	}
	for _, rate := range p.SampleRates {
		for _, tbl := range p.TableSizes {
			for _, pat := range p.Patterns {
				for _, duty := range p.DutyCycles {
					if duty == 0 {
						add(rate, tbl, pat, 0, 0)
						continue
					}
					for _, phase := range p.Phases {
						add(rate, tbl, pat, duty, phase)
					}
				}
			}
		}
	}
	return keys, cells
}

func init() {
	register("trr-dodge", "TRR dodge study: duty-cycle/phase-paced attacks vs an in-DRAM sampling TRR (sampler × pattern × pacing)", TRRDodgeParams.normalized,
		func(rc *runCtx, p TRRDodgeParams) (*Result, error) {
			keys, cells := trrDodgeGrid(p, rc.spec.Seed)
			return runSweep(rc, p.shape(), keys, cells, dodgePoint)
		},
		func(res *Result, p TRRDodgeParams) (Artifact, error) {
			keys, _ := trrDodgeGrid(p, res.Spec.Seed)
			meta, points, err := decodeSweep[DodgePoint](res, keys)
			if err != nil {
				return nil, err
			}
			return &TRRDodge{
				Points:    points,
				MemCycles: meta.MemCycles,
				WallMS:    meta.WallMS,
				Benign:    meta.Benign,
				ECC:       meta.ECC,
			}, nil
		})
}

// dodgePoint is the payload of a trr-dodge cell: the cell's pacing and
// sampler, the run's security and performance, the observer's per-REF
// timeline and the sampler's effort.
func dodgePoint(cell sweepCell, pt *AttackPoint, obs *attack.Observer, mech mitigation.Mechanism) DodgePoint {
	dp := DodgePoint{
		Pattern:           cell.Pattern,
		DutyCycle:         cell.duty,
		Phase:             cell.phase,
		SampleRate:        cell.trr.SampleRate,
		TableSize:         cell.trr.TableSize,
		HCFirst:           cell.HC,
		EscapedFlips:      pt.EscapedFlips,
		RawFlips:          pt.RawFlips,
		TimeToFirstFlipMS: pt.TimeToFirstFlipMS,
		AggressorACTs:     pt.AggressorACTs,
		AggACTsPerSec:     pt.AggACTsPerSec,
		BenignPerfPct:     pt.BenignPerfPct,
		OverheadPct:       pt.OverheadPct,
	}
	if obs != nil {
		var agg, max int64
		for _, w := range obs.Timeline() {
			agg += w.AggressorACTs
			if w.AggressorACTs > max {
				max = w.AggressorACTs
			}
			if w.Flips > 0 {
				dp.FlipWindows++
			}
		}
		dp.REFWindows = len(obs.Timeline())
		dp.MaxWindowAggACTs = max
		if dp.REFWindows > 0 {
			dp.MeanWindowAggACTs = float64(agg) / float64(dp.REFWindows)
		}
	}
	if trr, ok := mech.(*mitigation.TRR); ok {
		dp.SamplerSamples = trr.Samples()
		dp.SamplerRefreshes = trr.VictimRefreshes()
	}
	return dp
}

// samplerKey groups points by sampler configuration and pattern for the
// dodge verdict.
type samplerKey struct {
	rate float64
	tbl  int
	pat  attack.Kind
}

// PointFor returns the cell for one exact coordinate, if present.
func (d *TRRDodge) PointFor(pat attack.Kind, duty, phase, rate float64, tbl int) (DodgePoint, bool) {
	for _, p := range d.Points {
		if p.Pattern == pat && p.DutyCycle == duty && p.Phase == phase &&
			p.SampleRate == rate && p.TableSize == tbl {
			return p, true
		}
	}
	return DodgePoint{}, false
}

// Dodges returns the paced points that escaped flips while the full-rate
// baseline of the same (sampler, pattern) group escaped none — the
// experiment's headline finding when non-empty.
func (d *TRRDodge) Dodges() []DodgePoint {
	blocked := map[samplerKey]bool{}
	for _, p := range d.Points {
		if p.DutyCycle == 0 && p.EscapedFlips == 0 {
			blocked[samplerKey{p.SampleRate, p.TableSize, p.Pattern}] = true
		}
	}
	var out []DodgePoint
	for _, p := range d.Points {
		if p.DutyCycle > 0 && p.EscapedFlips > 0 &&
			blocked[samplerKey{p.SampleRate, p.TableSize, p.Pattern}] {
			out = append(out, p)
		}
	}
	return out
}

// Format renders the study.
func (d *TRRDodge) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TRR dodge study: paced attacks vs the in-DRAM sampler (%.2f ms window, %s", d.WallMS, d.Benign)
	if d.ECC {
		sb.WriteString(", on-die ECC")
	}
	sb.WriteString(")\n")

	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "pattern\tduty\tphase\trate\ttable\tflips%s\tt-first-flip\taggACT/s\twinACTs\tsampled\ttrrRef\tbenign perf%%\toverhead%%\n",
			rawColumn(d.ECC, "raw"))
		for _, p := range d.Points {
			ttff := "-"
			if p.TimeToFirstFlipMS >= 0 {
				ttff = fmt.Sprintf("%.3fms", p.TimeToFirstFlipMS)
			}
			duty := "full"
			if p.DutyCycle > 0 {
				duty = fmtAxis(p.DutyCycle)
			}
			benign := "-"
			if p.BenignPerfPct >= 0 {
				benign = fmt.Sprintf("%.1f", p.BenignPerfPct)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d%s\t%s\t%.2fM\t%.0f\t%d\t%d\t%s\t%.3f\n",
				p.Pattern, duty, fmtAxis(p.Phase), fmtAxis(p.SampleRate), p.TableSize,
				p.EscapedFlips, rawColumn(d.ECC, p.RawFlips), ttff, p.AggACTsPerSec/1e6,
				p.MeanWindowAggACTs, p.SamplerSamples, p.SamplerRefreshes,
				benign, p.OverheadPct)
		}
	}))

	sb.WriteString("\nwinACTs: mean aggressor ACTs per REF interval (the attack's loudness at TRR's own granularity);\n")
	sb.WriteString("sampled: activations the sampler observed; trrRef: neighbour refreshes its REFs issued.\n")

	dodges := d.Dodges()
	if len(dodges) == 0 {
		sb.WriteString("\nNo paced attack escaped a sampler configuration that blocks full-rate hammering on this grid.\n")
	} else {
		fmt.Fprintf(&sb, "\nDodges (%d): paced attacks escaping a sampler that blocks the same attack at full rate:\n", len(dodges))
		for _, p := range dodges {
			fmt.Fprintf(&sb, "  %s duty=%s phase=%s vs rate=%s table=%d: %d flips (sampler saw %d ACTs; full-rate: 0 flips)\n",
				p.Pattern, fmtAxis(p.DutyCycle), fmtAxis(p.Phase), fmtAxis(p.SampleRate), p.TableSize,
				p.EscapedFlips, p.SamplerSamples)
		}
	}
	return sb.String()
}
