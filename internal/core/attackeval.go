package core

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/engine"
)

// The attack evaluation is the experiment the paper doesn't contain:
// Figure 10 measures what mitigations cost on benign workloads; this
// measures what they prevent. A (mechanism × attack pattern × HCfirst)
// grid of mixed attacker+benign simulations runs with a calibrated
// faultmodel.Chip coupled to the controller's command stream through the
// attack.Observer, reporting security outcomes (escaped flips, time to
// first flip, achieved aggressor ACT rate) next to the familiar
// performance metrics (benign slowdown under attack, bandwidth overhead).
// It shares its baseline and per-cell machinery with the pareto sweep
// (see paretosweep.go); the difference is the reporting axis —
// per-pattern points here, worst-case frontier aggregates there.

// AttackPoint is one grid point's outcome.
type AttackPoint struct {
	Mechanism MechanismID
	Scheduler SchedulerID
	Pattern   attack.Kind
	HCFirst   int
	Viable    bool

	// Security metrics. EscapedFlips is the post-correction count for
	// on-die ECC chips; RawFlips the pre-correction count (equal without
	// ECC).
	EscapedFlips      int
	RawFlips          int
	TimeToFirstFlipMS float64 // -1 when no flip escaped
	AggressorACTs     int64
	AggACTsPerSec     float64

	// Performance metrics.
	BenignPerfPct float64 // benign weighted speedup vs. unattacked baseline, %
	OverheadPct   float64 // Figure 10a's DRAM bandwidth overhead metric
	// ThrottleStallCycles approximates memory cycles in which a throttling
	// mechanism held back a schedulable request.
	ThrottleStallCycles int64
	// AttackerBusPct is the attacker's share of demand DRAM bus/bank time
	// (per-requester occupancy attribution): how much of the memory
	// system's demand service the attack monopolized. 0 in benign-only
	// cells.
	AttackerBusPct float64
}

// AttackEval is the full grid result.
type AttackEval struct {
	Points    []AttackPoint
	MemCycles int64
	WallMS    float64 // simulated attack duration
	Benign    string  // benign mix description
	ECC       bool
}

// AttackParams is the parameter block of the attack experiment. Zero
// fields take the defaults normalized resolves.
type AttackParams struct {
	Patterns   []attack.Kind `json:"patterns,omitempty"`
	Mechanisms []MechanismID `json:"mechanisms,omitempty"`
	HCSweep    []int         `json:"hc,omitempty"`
	// Scheduler selects the controller's scheduling policy for every grid
	// point (default FR-FCFS, the paper's baseline).
	Scheduler SchedulerID `json:"scheduler,omitempty"`
	// BenignCores is the count of benign workload cores sharing the
	// system with the single attacker core (the paper's Table 6 system
	// has 8 cores; the default 3 benign + 1 attacker keeps the grid
	// tractable).
	BenignCores int `json:"benign_cores,omitempty"`
	// TraceRecords sizes the benign traces.
	TraceRecords int `json:"trace_records,omitempty"`
	// MemCycles is the attack duration in memory-clock cycles. The
	// default (~2.5 ms of DDR4-2400 time) models the worst-case slice of
	// a refresh window: the victim gets no auto-refresh help, so the
	// mechanism alone must stop the accumulation.
	MemCycles int64 `json:"mem_cycles,omitempty"`
	// Rows overrides rows per bank (chip and channel geometry) so tests
	// can shrink the system; 0 keeps the Table 6 value.
	Rows int `json:"rows,omitempty"`
	// AttackRecords sizes one attacker trace pass (0 = pattern default).
	AttackRecords int `json:"attack_records,omitempty"`
	// ECC evaluates LPDDR4-like chips with on-die ECC: escaped flips are
	// post-correction counts, reported alongside the raw (pre-correction)
	// counts.
	ECC bool `json:"ecc,omitempty"`
	// Attack carries pacing (duty_cycle, phase, period_cycles, gap, …);
	// kind, records and seed are set per grid cell.
	Attack *attack.Spec `json:"attack,omitempty"`
}

// Validate rejects axis values no grid cell can evaluate (unknown
// mechanisms, patterns or scheduler, non-positive HCfirst points) and a
// shape no run can use (sweepShape.validate) at spec decode, so a
// mistyped value fails validation instead of inside the run.
func (p *AttackParams) Validate() error {
	if err := checkAxes(p.Mechanisms, []SchedulerID{p.Scheduler}, p.Patterns, p.HCSweep); err != nil {
		return err
	}
	return p.shape().validate()
}

func (p AttackParams) shape() sweepShape {
	return sweepShape{benignCores: p.BenignCores, traceRecords: p.TraceRecords, memCycles: p.MemCycles,
		rows: p.Rows, attackRecords: p.AttackRecords, ecc: p.ECC, pacing: p.Attack}
}

func (p AttackParams) normalized() AttackParams {
	if len(p.Patterns) == 0 {
		p.Patterns = attack.Kinds()
	}
	if len(p.Mechanisms) == 0 {
		// The unprotected baseline, the paper's most scalable
		// refresh-based mechanism, the post-paper throttling design, and
		// the oracle bound.
		p.Mechanisms = []MechanismID{MechNone, MechPARA, MechBlockHammer, MechIdeal}
	}
	if len(p.HCSweep) == 0 {
		p.HCSweep = []int{10_000, 4_800, 2_000, 512}
	}
	if p.BenignCores <= 0 {
		p.BenignCores = 3
	}
	if p.TraceRecords <= 0 {
		p.TraceRecords = 2_000
	}
	if p.MemCycles <= 0 {
		p.MemCycles = 3_000_000
	}
	return p
}

// attackGrid enumerates the (mechanism × pattern × HCfirst) cells and
// their stable keys.
func attackGrid(p AttackParams, seed uint64) (keys []string, cells []sweepCell) {
	for _, id := range p.Mechanisms {
		for pi, pat := range p.Patterns {
			for hi, hc := range p.HCSweep {
				cells = append(cells, sweepCell{
					Mech: id, Sched: p.Scheduler, Pattern: pat, HC: hc,
					streamSeed: engine.DeriveSeed(seed^0x57eea, uint64(pi*len(p.HCSweep)+hi)),
				})
				keys = append(keys, fmt.Sprintf("mech=%s/sched=%s/pat=%s/hc=%d",
					id, schedLabel(p.Scheduler), pat, hc))
			}
		}
	}
	return keys, cells
}

// schedLabel renders a scheduler for task keys (empty means FR-FCFS).
func schedLabel(s SchedulerID) string {
	if s == "" {
		return string(SchedFRFCFS)
	}
	return string(s)
}

func init() {
	// attack evaluates every (mechanism, pattern, HCfirst) grid point.
	// Phase 1 measures the benign cores alone (no attacker, no
	// mitigation) as the performance baseline; phase 2 fans the grid out
	// over the experiment engine, so results are bit-identical for any
	// Parallelism.
	register("attack", "Attack evaluation: mitigations under adversarial hammering (mechanism × pattern × HCfirst)", AttackParams.normalized,
		func(rc *runCtx, p AttackParams) (*Result, error) {
			keys, cells := attackGrid(p, rc.spec.Seed)
			return runSweep(rc, p.shape(), keys, cells, attackPoint)
		},
		func(res *Result, p AttackParams) (Artifact, error) {
			keys, _ := attackGrid(p, res.Spec.Seed)
			meta, points, err := decodeSweep[AttackPoint](res, keys)
			if err != nil {
				return nil, err
			}
			// Points follow the grid's mechanism × pattern × HCfirst
			// nesting by construction.
			return &AttackEval{
				Points:    points,
				MemCycles: meta.MemCycles,
				WallMS:    meta.WallMS,
				Benign:    meta.Benign,
				ECC:       meta.ECC,
			}, nil
		})
}

// PointsFor filters the grid for one mechanism, in report order.
func (e *AttackEval) PointsFor(id MechanismID) []AttackPoint {
	var out []AttackPoint
	for _, p := range e.Points {
		if p.Mechanism == id {
			out = append(out, p)
		}
	}
	return out
}

// Format renders the attack evaluation.
func (e *AttackEval) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Attack evaluation: mitigations under adversarial hammering (%.2f ms window, %s)\n",
		e.WallMS, e.Benign)

	var order []MechanismID
	seen := map[MechanismID]bool{}
	for _, p := range e.Points {
		if !seen[p.Mechanism] {
			seen[p.Mechanism] = true
			order = append(order, p.Mechanism)
		}
	}

	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "mechanism\tpattern\tHCfirst\tflips%s\tt-first-flip\taggACT/s\tattBus%%\tbenign perf%%\toverhead%%\tviable\n",
			rawColumn(e.ECC, "raw"))
		for _, id := range order {
			for _, p := range e.PointsFor(id) {
				ttff := "-"
				if p.TimeToFirstFlipMS >= 0 {
					ttff = fmt.Sprintf("%.3fms", p.TimeToFirstFlipMS)
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d%s\t%s\t%.2fM\t%.1f\t%.1f\t%.3f\t%v\n",
					p.Mechanism, p.Pattern, p.HCFirst, p.EscapedFlips, rawColumn(e.ECC, p.RawFlips), ttff,
					p.AggACTsPerSec/1e6, p.AttackerBusPct, p.BenignPerfPct, p.OverheadPct, p.Viable)
			}
		}
	}))

	// Security verdict summary: a mechanism "holds" at a point when no
	// flip escaped.
	var insecure []string
	for _, p := range e.Points {
		if p.Mechanism != MechNone && p.EscapedFlips > 0 {
			insecure = append(insecure,
				fmt.Sprintf("%s vs %s @ %d (%d flips)", p.Mechanism, p.Pattern, p.HCFirst, p.EscapedFlips))
		}
	}
	if len(insecure) == 0 {
		sb.WriteString("\nAll evaluated mechanisms prevented every bit flip on this grid.\n")
	} else {
		fmt.Fprintf(&sb, "\nBroken configurations (%d):\n", len(insecure))
		for _, s := range insecure {
			sb.WriteString("  " + s + "\n")
		}
	}
	return sb.String()
}

// MaxEscaped returns the largest escaped-flip count for a mechanism
// across the grid (diagnostics and tests).
func (e *AttackEval) MaxEscaped(id MechanismID) int {
	max := math.MinInt
	for _, p := range e.PointsFor(id) {
		if p.EscapedFlips > max {
			max = p.EscapedFlips
		}
	}
	if max == math.MinInt {
		return 0
	}
	return max
}
