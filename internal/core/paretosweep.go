package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/faultmodel"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the shared sweep core behind the system-level
// experiments. fig10 (benign overhead), attack (security under attack),
// pareto (the combined frontier) and trr-dodge (paced attacks on a
// sampler) all run in two phases — a baseline phase followed by a grid
// fanned out over the deterministic engine — and they share the
// machinery here: scheduler selection, per-mix baselines, and the one
// sweep every attack, pareto and trr-dodge cell runs through (newSweep
// builds its system and benign baseline, sweep.run runs a cell).

// SchedulerID names a memory-controller scheduling policy of the sweep's
// scheduler axis.
type SchedulerID string

const (
	// SchedFRFCFS is the paper's baseline first-ready FCFS scheduler.
	SchedFRFCFS SchedulerID = "FR-FCFS"
	// SchedBLISS is the fairness-aware variant: per-requester service
	// streak counters blacklist a requester that monopolizes consecutive
	// read service, demoting (never blocking) its requests until the next
	// clearing interval.
	SchedBLISS SchedulerID = "BLISS"
)

// Schedulers lists the scheduler axis in evaluation order.
func Schedulers() []SchedulerID { return []SchedulerID{SchedFRFCFS, SchedBLISS} }

// applyScheduler configures a simulation for the scheduling policy.
// streak and clear parameterize BLISS (0 keeps the controller defaults:
// streak 4, clearing interval 10k cycles) and are ignored for FR-FCFS.
func applyScheduler(cfg *sim.Config, id SchedulerID, streak int, clear int64) error {
	switch id {
	case "", SchedFRFCFS:
		return nil
	case SchedBLISS:
		cfg.Ctrl.BLISS = true
		cfg.Ctrl.BLISSStreak = streak
		cfg.Ctrl.BLISSClearCycles = clear
		return nil
	default:
		return fmt.Errorf("core: unknown scheduler %q", id)
	}
}

// checkAxes rejects grid-axis values no cell can evaluate: mechanisms
// buildMechanism does not know, schedulers applyScheduler does not know,
// patterns outside attack.Kinds(), and non-positive HCfirst points.
// Params Validate methods call it so a bad spec fails at decode.
func checkAxes(mechs []MechanismID, scheds []SchedulerID, pats []attack.Kind, hcs []int) error {
	for _, id := range mechs {
		// A zero config fails every constructor's params check before it
		// allocates, so only an unknown ID reports errUnknownMechanism.
		if _, err := buildMechanism(id, sim.Config{}, 0, 0); errors.Is(err, errUnknownMechanism) {
			return err
		}
	}
	for _, id := range scheds {
		var scratch sim.Config
		if err := applyScheduler(&scratch, id, 0, 0); err != nil {
			return err
		}
	}
	for _, k := range pats {
		if !slices.Contains(attack.Kinds(), k) {
			return fmt.Errorf("core: unknown attack pattern %q (known: %v)", k, attack.Kinds())
		}
	}
	for _, hc := range hcs {
		if hc <= 0 {
			return fmt.Errorf("core: hc value %d not positive", hc)
		}
	}
	return nil
}

// size is one count or length field of a parameter block, by JSON name.
type size struct {
	name string
	v    int64
}

// checkSizes rejects negative sizes, which would otherwise run as the
// default (0 asks for it), at spec decode.
func checkSizes(sizes ...size) error {
	for _, s := range sizes {
		if s.v < 0 {
			return fmt.Errorf("core: %s must not be negative, got %d (omit it for the default)", s.name, s.v)
		}
	}
	return nil
}

// sweepShape is what the attack, pareto and trr-dodge params share: the
// benign side's size, the attack window, the rows per bank (0 keeps the
// Table 6 geometry), one attacker trace pass, the chip's on-die ECC, and
// the pacing of every attack stream (nil = unpaced).
type sweepShape struct {
	benignCores, traceRecords int
	memCycles                 int64
	rows, attackRecords       int
	ecc                       bool
	pacing                    *attack.Spec
}

// validate rejects a shape no run can use, at spec decode: a negative
// size, a rows override below the attack synthesizer's minimum bank or
// above the Table 6 geometry it shrinks, and pacing that sets a field
// every cell overwrites or lies outside its [0,1) domain.
func (s sweepShape) validate() error {
	if err := checkSizes(size{"benign_cores", int64(s.benignCores)}, size{"trace_records", int64(s.traceRecords)},
		size{"mem_cycles", s.memCycles}, size{"rows", int64(s.rows)}, size{"attack_records", int64(s.attackRecords)}); err != nil {
		return err
	}
	if s.rows > 0 && s.rows < attack.MinRows {
		return fmt.Errorf("core: rows %d below the minimum of %d (omit it for the Table 6 geometry)", s.rows, attack.MinRows)
	}
	if limit := dram.Table6Geometry().Rows; s.rows > limit {
		return fmt.Errorf("core: rows %d above the Table 6 geometry's %d (rows only shrinks the system)", s.rows, limit)
	}
	a := s.pacing
	switch {
	case a == nil:
		return nil
	case a.Kind != "":
		return fmt.Errorf("core: attack.kind %q is set per cell; list the patterns under patterns", a.Kind)
	case a.Records != 0:
		return fmt.Errorf("core: attack.records %d is set per cell; size the attacker trace with attack_records", a.Records)
	case a.Seed != 0:
		return fmt.Errorf("core: attack.seed %d is set per cell from the spec seed; change the spec's seed instead", a.Seed)
	}
	return a.Validate()
}

// attackChip builds the victim chip for an HCfirst point: a DDR4-like
// part spanning the simulated channel, blast radius 1. Without on-die ECC
// escaped flips are directly attributable; with it (the LPDDR4-like
// configuration) the observer reports post-correction escapes alongside
// raw flips.
func attackChip(cfg sim.Config, hc int, seed uint64, ecc bool) (*faultmodel.Chip, error) {
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name:         fmt.Sprintf("attacked-hc%d", hc),
		Banks:        cfg.Geo.Banks(),
		Rows:         cfg.Geo.Rows,
		RowBits:      1024,
		HCFirst:      float64(hc),
		Rate150k:     5e-5,
		WorstPattern: faultmodel.RowStripe0,
		OnDieECC:     ecc,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	chip.WriteAll(faultmodel.RowStripe0)
	return chip, nil
}

// mixBaselines is phase 1 of the benign sweeps: every mix's single-core
// alone IPCs and no-mitigation weighted speedup, fanned out over the
// engine.
func mixBaselines(eo engine.Options, cfg sim.Config, mixes []trace.Mix) ([]mixBaseline, [][]float64, error) {
	type mixResult struct {
		alone []float64
		base  mixBaseline
	}
	mixResults, err := engine.Map(eo, mixes, func(mix trace.Mix) (mixResult, error) {
		alone, err := sim.RunAlone(cfg, mix)
		if err != nil {
			return mixResult{}, err
		}
		res, err := sim.Run(cfg, mix)
		if err != nil {
			return mixResult{}, err
		}
		ws, err := sim.WeightedSpeedup(res.IPC, alone)
		if err != nil {
			return mixResult{}, err
		}
		return mixResult{alone: alone, base: mixBaseline{ws: ws, mpki: res.MPKI}}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	baselines := make([]mixBaseline, len(mixes))
	alones := make([][]float64, len(mixes))
	for i, r := range mixResults {
		baselines[i] = r.base
		alones[i] = r.alone
	}
	return baselines, alones, nil
}

// sweepCell is one grid point of an adversarial sweep: a mechanism and
// scheduler facing one attack pattern at one HCfirst. An empty Pattern
// marks a benign-only cell (the mechanism's overhead with no attacker in
// the system). streamSeed derives from (pattern, HCfirst) only — never
// the mechanism or scheduler — so every contender at a grid point faces
// the same chip (same weakest cell, same thresholds) and the same
// attacker stream; anything else would confound the comparison.
type sweepCell struct {
	Mech    MechanismID
	Sched   SchedulerID
	Pattern attack.Kind
	HC      int
	// blissStreak / blissClear parameterize the BLISS scheduler for this
	// cell (0 = controller defaults); the Pareto sweep can take them as
	// grid axes.
	blissStreak int
	blissClear  int64
	streamSeed  uint64
	// duty / phase override the sweep's pacing for this cell (the
	// trr-dodge grid takes them as axes); duty 0 keeps the sweep's pacing
	// (full rate unless the spec paces).
	duty, phase float64
	// trr, when non-nil, builds the cell's mechanism as a TRR sampler
	// with this configuration instead of going through buildMechanism —
	// the trr-dodge grid's sampler rate/table-size axes.
	trr *mitigation.TRRConfig
}

// sweepMeta is the shard-invariant metadata of the adversarial sweeps.
type sweepMeta struct {
	MemCycles int64   `json:"mem_cycles"`
	WallMS    float64 `json:"wall_ms"`
	Benign    string  `json:"benign"`
	ECC       bool    `json:"ecc,omitempty"`
}

// sweep is one adversarial grid's setup, built once per run and only read
// by its cells: the Table 6 system sized by the shape, the benign mix and
// its baseline IPCs (empty for an attacker-only grid), and the metadata.
type sweep struct {
	sweepShape
	cfg     sim.Config
	benign  trace.Mix
	baseIPC []float64
	meta    sweepMeta
}

// newSweep builds the system for a duration-terminated run and runs the
// benign cores alone — no attacker, no mitigation, FR-FCFS — as the
// performance reference of every cell.
func newSweep(s sweepShape, seed uint64) (*sweep, error) {
	cfg := sim.Table6Config(0, 1<<40) // MaxCPUCycles ends the run
	if s.rows > 0 {
		cfg.Geo.Rows = s.rows
		cfg.T = dram.DDR4_2400(s.rows)
	}
	cfg.MaxCPUCycles = s.memCycles * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
	sw := &sweep{sweepShape: s, cfg: cfg, meta: sweepMeta{
		MemCycles: s.memCycles,
		WallMS:    float64(s.memCycles) * float64(cfg.T.TCKPS) * 1e-9,
		Benign:    "attacker only",
		ECC:       s.ecc,
	}}
	if s.benignCores == 0 {
		return sw, nil
	}
	sw.benign = trace.Mixes(1, s.benignCores, s.traceRecords, seed)[0]
	base, err := sim.Run(sw.cfg, sw.benign)
	if err != nil {
		return nil, fmt.Errorf("core: benign baseline: %w", err)
	}
	for i, v := range base.IPC {
		if v <= 0 {
			return nil, fmt.Errorf("core: benign baseline: core %d IPC is zero", i)
		}
	}
	sw.baseIPC = base.IPC
	sw.meta.Benign = fmt.Sprintf("%d benign cores, MPKI %.0f", s.benignCores, base.MPKI)
	return sw, nil
}

// run runs one grid point: a mixed attacker+benign simulation (or a
// benign-only one for an empty Pattern) under the cell's mechanism and
// scheduler, reporting security and performance together. seed is the
// task's seed for mechanism-internal randomness. It also returns the
// run's observer (nil for a benign-only cell) and mechanism, whose
// per-REF timeline and counters trr-dodge reports.
func (sw *sweep) run(cell sweepCell, seed uint64) (*AttackPoint, *attack.Observer, mitigation.Mechanism, error) {
	cfg := sw.cfg
	if err := applyScheduler(&cfg, cell.Sched, cell.blissStreak, cell.blissClear); err != nil {
		return nil, nil, nil, err
	}
	var mech mitigation.Mechanism
	var err error
	if cell.trr != nil {
		mech, err = mitigation.NewTRRWithConfig(cfg.MitigationParams(cell.HC, seed^0x3eca), *cell.trr)
	} else {
		mech, err = buildMechanism(cell.Mech, cfg, cell.HC, seed^0x3eca)
	}
	if err != nil {
		return nil, nil, nil, err
	}

	mix := trace.Mix{Name: "benign-only"}
	var obs *attack.Observer
	if cell.Pattern != "" {
		chip, err := attackChip(cfg, cell.HC, cell.streamSeed, sw.ecc)
		if err != nil {
			return nil, nil, nil, err
		}
		// The attacker has profiled the chip (the strong threat model of
		// Section 6): aim at the weakest cell's row.
		weak := chip.WeakestCell()
		var spec attack.Spec
		if sw.pacing != nil {
			spec = *sw.pacing
		}
		spec.Kind = cell.Pattern
		spec.Records = sw.attackRecords
		spec.Seed = cell.streamSeed ^ 0xdec0
		if cell.duty > 0 {
			spec.DutyCycle = cell.duty
			spec.Phase = cell.phase
		}
		attackTrace, aggressors, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
		if err != nil {
			return nil, nil, nil, err
		}
		obs = attack.NewObserver(chip)
		obs.WatchAggressors(aggressors)
		mix.Name = "attack-" + string(cell.Pattern)
		mix.Traces = append(mix.Traces, attackTrace)
	}
	mix.Traces = append(mix.Traces, sw.benign.Traces...)

	cfg.Mechanism = mech
	if obs != nil {
		cfg.Observer = obs
	}
	res, err := sim.Run(cfg, mix)
	if err != nil {
		return nil, nil, nil, err
	}

	pt := &AttackPoint{
		Mechanism:           cell.Mech,
		Scheduler:           cell.Sched,
		Pattern:             cell.Pattern,
		HCFirst:             cell.HC,
		Viable:              true,
		OverheadPct:         res.BandwidthOverheadPct,
		ThrottleStallCycles: res.Ctrl.ThrottleStallCycles,
		TimeToFirstFlipMS:   -1,
	}
	if v, ok := mech.(mitigation.Viability); ok {
		pt.Viable = v.Viable()
	}
	if obs != nil {
		pt.EscapedFlips = obs.EscapedFlips()
		pt.RawFlips = obs.RawFlips()
		pt.AggressorACTs = obs.AggressorACTs()
		if c := obs.FirstFlipCycle(); c >= 0 {
			pt.TimeToFirstFlipMS = float64(c) * float64(cfg.T.TCKPS) * 1e-9
		}
		if secs := float64(sw.memCycles) * float64(cfg.T.TCKPS) * 1e-12; secs > 0 {
			pt.AggACTsPerSec = float64(obs.AggressorACTs()) / secs
		}
		// DoS attribution: the attacker sits at core 0 of the mix, so its
		// per-requester bus-busy share is the fraction of demand DRAM
		// service the attack consumed.
		pt.AttackerBusPct = res.Ctrl.BusSharePct(0)
	}
	// Benign performance: weighted speedup of the benign cores against
	// their unattacked, unmitigated baseline. In an attack cell the benign
	// cores sit at positions 1..N behind the attacker; in a benign-only
	// cell they are the whole mix. An attacker-only run (trr-dodge with
	// BenignCores 0) has no benign side to measure: -1.
	if len(sw.baseIPC) == 0 {
		pt.BenignPerfPct = -1
		return pt, obs, mech, nil
	}
	off := 0
	if cell.Pattern != "" {
		off = 1
	}
	ws := 0.0
	for i, b := range sw.baseIPC {
		ws += res.IPC[i+off] / b
	}
	pt.BenignPerfPct = 100 * ws / float64(len(sw.baseIPC))
	return pt, obs, mech, nil
}

// runSweep builds the sweep of a grid's shape and runs the shard's cells
// on the engine; point turns one finished cell into the grid's payload.
func runSweep[C any](rc *runCtx, s sweepShape, keys []string, cells []sweepCell,
	point func(sweepCell, *AttackPoint, *attack.Observer, mitigation.Mechanism) C,
) (*Result, error) {
	sw, err := newSweep(s, rc.spec.Seed)
	if err != nil {
		return nil, err
	}
	return gridResult(rc, sw.meta, keys, cells, func(cell sweepCell, seed uint64) (C, error) {
		pt, obs, mech, err := sw.run(cell, seed)
		if err != nil {
			var zero C
			return zero, err
		}
		return point(cell, pt, obs, mech), nil
	})
}

// attackPoint is the payload of an attack or pareto cell: the point as
// run.
func attackPoint(_ sweepCell, pt *AttackPoint, _ *attack.Observer, _ mitigation.Mechanism) AttackPoint {
	return *pt
}

// decodeSweep reads a complete sweep result back: its metadata and its
// cells in key order.
func decodeSweep[C any](res *Result, keys []string) (sweepMeta, []C, error) {
	var meta sweepMeta
	if err := json.Unmarshal(res.Meta, &meta); err != nil {
		return meta, nil, fmt.Errorf("core: %s meta: %w", res.Spec.Name, err)
	}
	cells, err := cellsInOrder[C](res, keys)
	return meta, cells, err
}

// --- Pareto sweep --------------------------------------------------------

// ParetoPoint is one (mechanism, scheduler, HCfirst) frontier candidate,
// aggregated across attack patterns.
type ParetoPoint struct {
	Mechanism MechanismID
	Scheduler SchedulerID
	// BLISSStreak / BLISSClear identify the BLISS parameter point when
	// the sweep takes them as axes (0 = controller defaults).
	BLISSStreak int
	BLISSClear  int64
	HCFirst     int
	Viable      bool

	// Security axis: worst case across the evaluated attack patterns.
	EscapedFlips int
	RawFlips     int

	// Overhead axis: BenignPerfPct is the worst-case benign throughput
	// under attack (% of the unattacked, unmitigated baseline);
	// NoAttackPerfPct the same metric with no attacker in the system (the
	// mechanism+scheduler's pure benign cost); OverheadPct the worst-case
	// Figure 10a DRAM bandwidth overhead under attack.
	BenignPerfPct   float64
	NoAttackPerfPct float64
	OverheadPct     float64

	// OnFrontier marks points no other point at the same HCfirst
	// dominates (fewer-or-equal escaped flips AND greater-or-equal benign
	// throughput, with at least one strict).
	OnFrontier bool
}

// ParetoSweep is the full frontier result.
type ParetoSweep struct {
	Points    []ParetoPoint
	Patterns  []attack.Kind
	MemCycles int64
	WallMS    float64
	Benign    string
	ECC       bool
}

// ParetoParams is the parameter block of the pareto experiment: the
// (mechanism × scheduler × HCfirst) grid, each point evaluated under
// every attack pattern plus one attacker-free run. Zero fields take the
// defaults normalized resolves.
type ParetoParams struct {
	Mechanisms []MechanismID `json:"mechanisms,omitempty"`
	Schedulers []SchedulerID `json:"schedulers,omitempty"`
	Patterns   []attack.Kind `json:"patterns,omitempty"`
	HCSweep    []int         `json:"hc,omitempty"`
	// BenignCores / TraceRecords size the benign side of each mix;
	// MemCycles the attack window; Rows the per-bank geometry (0 =
	// Table 6); AttackRecords one attacker trace pass (0 = default).
	BenignCores   int   `json:"benign_cores,omitempty"`
	TraceRecords  int   `json:"trace_records,omitempty"`
	MemCycles     int64 `json:"mem_cycles,omitempty"`
	Rows          int   `json:"rows,omitempty"`
	AttackRecords int   `json:"attack_records,omitempty"`
	// ECC evaluates LPDDR4-like chips with on-die ECC: escaped flips are
	// post-correction, reported alongside the raw count.
	ECC bool `json:"ecc,omitempty"`
	// Attack carries pattern pacing applied to every synthesized stream;
	// kind, records and seed are set per grid cell.
	Attack *attack.Spec `json:"attack,omitempty"`
	// BLISSStreaks / BLISSClears are the BLISS scheduler-parameter axes
	// (ROADMAP's fairness/throughput trade-off map): every BLISS grid
	// point is evaluated at each (streak, clearing-interval) combination.
	// Empty means one point at the controller defaults (streak 4, 10k
	// cycles). FR-FCFS points ignore both axes.
	BLISSStreaks []int   `json:"bliss_streaks,omitempty"`
	BLISSClears  []int64 `json:"bliss_clears,omitempty"`
}

// Validate rejects axis values no grid cell can evaluate (unknown
// mechanisms, schedulers or patterns, non-positive HCfirst points), a
// shape no run can use (sweepShape.validate), BLISS axis values the grid
// cannot distinguish from the defaults (labels would collide into
// duplicate task keys), and BLISS axes with no BLISS scheduler to take
// them.
func (p *ParetoParams) Validate() error {
	if err := checkAxes(p.Mechanisms, p.Schedulers, p.Patterns, p.HCSweep); err != nil {
		return err
	}
	if err := p.shape().validate(); err != nil {
		return err
	}
	if len(p.BLISSStreaks)+len(p.BLISSClears) > 0 && len(p.Schedulers) > 0 && !slices.Contains(p.Schedulers, SchedBLISS) {
		return fmt.Errorf("core: pareto bliss_streaks and bliss_clears apply only to BLISS, which schedulers does not list")
	}
	for _, s := range p.BLISSStreaks {
		if s <= 0 {
			return fmt.Errorf("core: pareto bliss_streaks value %d not positive (omit the field for the controller default)", s)
		}
	}
	for _, c := range p.BLISSClears {
		if c <= 0 {
			return fmt.Errorf("core: pareto bliss_clears value %d not positive (omit the field for the controller default)", c)
		}
	}
	return nil
}

func (p ParetoParams) shape() sweepShape {
	return sweepShape{benignCores: p.BenignCores, traceRecords: p.TraceRecords, memCycles: p.MemCycles,
		rows: p.Rows, attackRecords: p.AttackRecords, ecc: p.ECC, pacing: p.Attack}
}

// normalized resolves the defaults: the unprotected baseline, the
// paper's most scalable refresh-based mechanism, both BlockHammer
// admission policies and the oracle bound, under both schedulers,
// against the two highest-pressure patterns.
func (p ParetoParams) normalized() ParetoParams {
	if len(p.Mechanisms) == 0 {
		p.Mechanisms = []MechanismID{MechNone, MechPARA, MechBlockHammerBlanket, MechBlockHammer, MechIdeal}
	}
	if len(p.Schedulers) == 0 {
		p.Schedulers = Schedulers()
	}
	if len(p.Patterns) == 0 {
		p.Patterns = []attack.Kind{attack.DoubleSided, attack.Decoy}
	}
	if len(p.HCSweep) == 0 {
		p.HCSweep = []int{4_800, 512}
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

// blissVariant is one point of the BLISS parameter axes.
type blissVariant struct {
	streak int
	clear  int64
}

// blissVariants expands the configured axes; FR-FCFS uses the single
// zero variant.
func (p ParetoParams) blissVariants(sched SchedulerID) []blissVariant {
	if sched != SchedBLISS {
		return []blissVariant{{}}
	}
	streaks := p.BLISSStreaks
	if len(streaks) == 0 {
		streaks = []int{0}
	}
	clears := p.BLISSClears
	if len(clears) == 0 {
		clears = []int64{0}
	}
	var out []blissVariant
	for _, s := range streaks {
		for _, c := range clears {
			out = append(out, blissVariant{streak: s, clear: c})
		}
	}
	return out
}

// paretoGrid flattens the (mechanism × scheduler-variant × HCfirst) grid:
// per point, every attack pattern plus the benign-only cell, in
// deterministic order. The stream seed depends only on (pattern, HCfirst)
// so every contender faces the same chip and attacker stream.
func paretoGrid(p ParetoParams, seed uint64) (keys []string, cells []sweepCell) {
	for _, mech := range p.Mechanisms {
		for _, sched := range p.Schedulers {
			for _, v := range p.blissVariants(sched) {
				for hi, hc := range p.HCSweep {
					add := func(pat attack.Kind, seed uint64) {
						cells = append(cells, sweepCell{
							Mech: mech, Sched: sched, Pattern: pat, HC: hc,
							blissStreak: v.streak, blissClear: v.clear,
							streamSeed: seed,
						})
						patLabel := string(pat)
						if pat == "" {
							patLabel = "benign-only"
						}
						keys = append(keys, fmt.Sprintf("mech=%s/sched=%s/hc=%d/pat=%s",
							mech, variantLabel(sched, v.streak, v.clear), hc, patLabel))
					}
					for pi, pat := range p.Patterns {
						add(pat, engine.DeriveSeed(seed^0x57eea, uint64(pi*len(p.HCSweep)+hi)))
					}
					add("", 0)
				}
			}
		}
	}
	return keys, cells
}

// variantLabel renders a scheduler with its BLISS parameters, matching
// SchedulerLabel on points.
func variantLabel(sched SchedulerID, streak int, clear int64) string {
	if sched != SchedBLISS || (streak == 0 && clear == 0) {
		return schedLabel(sched)
	}
	s, c := streak, clear
	if s == 0 {
		s = 4
	}
	if c == 0 {
		c = 10_000
	}
	return fmt.Sprintf("%s[s=%d,c=%d]", SchedBLISS, s, c)
}

// SchedulerLabel renders the point's scheduler including any non-default
// BLISS parameters.
func (p ParetoPoint) SchedulerLabel() string {
	return variantLabel(p.Scheduler, p.BLISSStreak, p.BLISSClear)
}

func init() {
	// pareto evaluates the (mechanism × scheduler × HCfirst) grid: every
	// point runs one mixed attacker+benign simulation per attack pattern
	// plus one attacker-free run, all fanned out over the experiment
	// engine (results are bit-identical for any Parallelism), and the
	// worst-case aggregates form escaped-flips-vs-benign-overhead frontier
	// points per HCfirst. The BLISS streak/clear axes multiply the
	// scheduler dimension when set.
	register("pareto", "Pareto sweep: worst-case security vs benign overhead per (mechanism × scheduler × HCfirst)", ParetoParams.normalized,
		func(rc *runCtx, p ParetoParams) (*Result, error) {
			keys, cells := paretoGrid(p, rc.spec.Seed)
			return runSweep(rc, p.shape(), keys, cells, attackPoint)
		},
		func(res *Result, p ParetoParams) (Artifact, error) {
			keys, cells := paretoGrid(p, res.Spec.Seed)
			meta, results, err := decodeSweep[AttackPoint](res, keys)
			if err != nil {
				return nil, err
			}
			return finalizePareto(p, meta, cells, results), nil
		})
}

// finalizePareto aggregates each grid point's pattern block (worst case)
// plus its benign-only run into frontier points.
func finalizePareto(p ParetoParams, meta sweepMeta, cells []sweepCell, results []AttackPoint) *ParetoSweep {
	sweep := &ParetoSweep{
		Patterns:  p.Patterns,
		MemCycles: meta.MemCycles,
		WallMS:    meta.WallMS,
		Benign:    meta.Benign,
		ECC:       meta.ECC,
	}
	perPoint := len(p.Patterns) + 1
	for start := 0; start+perPoint <= len(results); start += perPoint {
		block := results[start : start+perPoint]
		cell := cells[start]
		pt := ParetoPoint{
			Mechanism:   block[0].Mechanism,
			Scheduler:   block[0].Scheduler,
			BLISSStreak: cell.blissStreak,
			BLISSClear:  cell.blissClear,
			HCFirst:     block[0].HCFirst,
			Viable:      block[0].Viable,
		}
		pt.BenignPerfPct = block[0].BenignPerfPct
		for _, r := range block[:len(block)-1] { // attack cells
			if r.EscapedFlips > pt.EscapedFlips {
				pt.EscapedFlips = r.EscapedFlips
			}
			if r.RawFlips > pt.RawFlips {
				pt.RawFlips = r.RawFlips
			}
			if r.BenignPerfPct < pt.BenignPerfPct {
				pt.BenignPerfPct = r.BenignPerfPct
			}
			if r.OverheadPct > pt.OverheadPct {
				pt.OverheadPct = r.OverheadPct
			}
		}
		pt.NoAttackPerfPct = block[len(block)-1].BenignPerfPct
		sweep.Points = append(sweep.Points, pt)
	}
	markFrontier(sweep.Points)
	return sweep
}

// markFrontier sets OnFrontier per HCfirst group: a point is on the
// frontier unless some other point at the same HCfirst has no more
// escaped flips and no less worst-case benign throughput, with at least
// one strict improvement.
func markFrontier(points []ParetoPoint) {
	for i := range points {
		points[i].OnFrontier = true
		for j := range points {
			if i == j || points[i].HCFirst != points[j].HCFirst {
				continue
			}
			noWorse := points[j].EscapedFlips <= points[i].EscapedFlips &&
				points[j].BenignPerfPct >= points[i].BenignPerfPct
			strictly := points[j].EscapedFlips < points[i].EscapedFlips ||
				points[j].BenignPerfPct > points[i].BenignPerfPct
			if noWorse && strictly {
				points[i].OnFrontier = false
				break
			}
		}
	}
}

// PointFor returns the aggregate for one (mechanism, scheduler, HCfirst)
// grid point, if present.
func (s *ParetoSweep) PointFor(mech MechanismID, sched SchedulerID, hc int) (ParetoPoint, bool) {
	for _, p := range s.Points {
		if p.Mechanism == mech && p.Scheduler == sched && p.HCFirst == hc {
			return p, true
		}
	}
	return ParetoPoint{}, false
}

// Frontier returns the non-dominated points for one HCfirst, in grid
// order.
func (s *ParetoSweep) Frontier(hc int) []ParetoPoint {
	var out []ParetoPoint
	for _, p := range s.Points {
		if p.HCFirst == hc && p.OnFrontier {
			out = append(out, p)
		}
	}
	return out
}

// Format renders the frontier tables, one HCfirst group per table.
func (s *ParetoSweep) Format() string {
	var sb strings.Builder
	pats := make([]string, len(s.Patterns))
	for i, p := range s.Patterns {
		pats[i] = string(p)
	}
	fmt.Fprintf(&sb, "Pareto sweep: worst-case security vs benign overhead per (mechanism × scheduler × HCfirst)\n")
	fmt.Fprintf(&sb, "(%.2f ms window, patterns %s, %s", s.WallMS, strings.Join(pats, "+"), s.Benign)
	if s.ECC {
		sb.WriteString(", on-die ECC")
	}
	sb.WriteString(")\n")

	var hcs []int
	seen := map[int]bool{}
	for _, p := range s.Points {
		if !seen[p.HCFirst] {
			seen[p.HCFirst] = true
			hcs = append(hcs, p.HCFirst)
		}
	}
	for _, hc := range hcs {
		fmt.Fprintf(&sb, "\nHCfirst = %d\n", hc)
		sb.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "mechanism\tscheduler\tflips\traw\tbenign-perf%\tno-attack%\tbw-overhead%\tviable\tfrontier")
			for _, p := range s.Points {
				if p.HCFirst != hc {
					continue
				}
				front := ""
				if p.OnFrontier {
					front = "*"
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%.1f\t%.3f\t%v\t%s\n",
					p.Mechanism, p.SchedulerLabel(), p.EscapedFlips, p.RawFlips,
					p.BenignPerfPct, p.NoAttackPerfPct, p.OverheadPct, p.Viable, front)
			}
		}))
	}
	sb.WriteString("\nfrontier (*): no same-HCfirst point has fewer escaped flips and higher worst-case benign throughput.\n")
	return sb.String()
}
