// Package rowhammer is the public API of this reproduction of
// "Revisiting RowHammer: An Experimental Analysis of Modern DRAM Devices
// and Mitigation Techniques" (Kim et al., ISCA 2020).
//
// It exposes these layers:
//
//   - The fault model (Chip, ChipConfig, Pattern): simulated DRAM chips
//     with RowHammer protection disabled, calibrated to the paper's 1580
//     real chips.
//   - The characterization harness (Tester): the paper's Algorithm 1
//     methodology — double-sided hammering with refresh disabled — plus
//     the measurements behind Tables 2–5 and Figures 4–9.
//   - The chip population (Modules, NewPopulation): the 300-module /
//     1580-chip census of Tables 1, 7 and 8.
//   - The system simulator and mitigation mechanisms (SimConfig, RunSim,
//     NewPARA, …): the cycle-accurate Section 6 evaluation behind
//     Figure 10.
//   - The attack subsystem (AttackSpec, HammerObserver): adversarial
//     hammering streams as first-class traces, coupled to the fault
//     model through the controller's command stream — the security side
//     of the mitigation evaluation the paper doesn't contain. NewTRR and
//     refresh-synchronized duty-cycle pacing (AttackSpec.DutyCycle/Phase)
//     model the in-DRAM sampling defense and the attack that dodges it.
//
// Every table and figure of the paper, plus the attack, Pareto and TRR
// dodge evaluations, is a named experiment in a registry
// (Experiments()), fully described by a JSON-serializable
// ExperimentSpec (name + params + seed + shard) and executed by
// RunExperiment; see EXPERIMENTS.md for paper-vs-measured values. Every
// experiment fans its grid out over a deterministic parallel engine:
// ExperimentExec.Parallelism bounds the worker count and changes
// wall-clock time only — results are bit-identical for any value. Specs
// shard: running every index of a shard count — on one machine or many
// — and merging the results (MergeExperimentResults) reproduces the
// unsharded artifact byte for byte. The rhx CLI exposes the same path
// (rhx run / merge / list / report).
package rowhammer

import (
	"context"

	"repro/internal/attack"
	"repro/internal/charact"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- Fault model -------------------------------------------------------

// Chip is a simulated DRAM chip with RowHammer protection disabled.
type Chip = faultmodel.Chip

// ChipConfig describes a chip's geometry and RowHammer vulnerability.
type ChipConfig = faultmodel.Config

// Flip is one observed bit flip.
type Flip = faultmodel.Flip

// Pattern is a DRAM data pattern (Solid, ColStripe, Checkered, RowStripe).
type Pattern = faultmodel.Pattern

// Data patterns of Section 4.3.
const (
	Solid0     = faultmodel.Solid0
	Solid1     = faultmodel.Solid1
	ColStripe0 = faultmodel.ColStripe0
	ColStripe1 = faultmodel.ColStripe1
	Checkered0 = faultmodel.Checkered0
	Checkered1 = faultmodel.Checkered1
	RowStripe0 = faultmodel.RowStripe0
	RowStripe1 = faultmodel.RowStripe1
)

// NewChip builds a chip from its configuration.
func NewChip(cfg ChipConfig) (*Chip, error) { return faultmodel.NewChip(cfg) }

// --- Characterization --------------------------------------------------

// Tester drives a chip through the paper's testing methodology.
type Tester = charact.Tester

// NewTester prepares a chip for characterization on one bank.
func NewTester(chip *Chip, bank int) (*Tester, error) { return charact.NewTester(chip, bank) }

// --- Population --------------------------------------------------------

// ModuleSpec is one DRAM module of the population (Tables 7 and 8).
type ModuleSpec = chips.ModuleSpec

// ChipSpec is one chip of the population.
type ChipSpec = chips.ChipSpec

// Population is the instantiable chip population.
type Population = chips.Population

// Scale selects chip geometry and instantiation caps.
type Scale = chips.Scale

// TypeNode identifies a DRAM type-node configuration (e.g. LPDDR4-1y).
type TypeNode = chips.TypeNode

// Predefined population scales.
var (
	ScaleTiny   = chips.ScaleTiny
	ScaleSmall  = chips.ScaleSmall
	ScaleMedium = chips.ScaleMedium
	ScaleFull   = chips.ScaleFull
)

// AllModules returns the paper's full 300-module population.
func AllModules() []ModuleSpec { return chips.AllModules() }

// DDR3Modules, DDR4Modules and LPDDR4Modules return the per-type module
// lists (Tables 8, 7, and the synthesized LPDDR4 set).
func DDR3Modules() []ModuleSpec   { return chips.DDR3Modules() }
func DDR4Modules() []ModuleSpec   { return chips.DDR4Modules() }
func LPDDR4Modules() []ModuleSpec { return chips.LPDDR4Modules() }

// NewPopulation samples per-chip vulnerabilities for a module list.
func NewPopulation(modules []ModuleSpec, scale Scale, seed uint64) *Population {
	return chips.NewPopulation(modules, scale, seed)
}

// --- Declarative experiment API ----------------------------------------

// ExperimentSpec declares one experiment run: a registered name, its
// parameters (raw JSON, strictly decoded), a seed, and the shard of the
// task grid to execute. Specs round-trip through JSON.
type ExperimentSpec = core.ExperimentSpec

// ExperimentShard selects one slice of an experiment's task grid
// (index/count); ownership hashes stable task keys, so every partition
// covers the grid exactly once.
type ExperimentShard = core.Shard

// ExperimentResult is one run's mergeable output: its spec, the grid
// size, shard-invariant metadata and one cell per executed task. Merging
// all shards of a spec and encoding canonically reproduces the unsharded
// run byte for byte; Artifact()/Format() rebuild the typed table/figure.
type ExperimentResult = core.Result

// ExperimentInfo describes a registry entry (rhx list).
type ExperimentInfo = core.ExperimentInfo

// ExperimentExec carries execution-only knobs (Parallelism) that never
// affect results.
type ExperimentExec = core.Exec

// Experiment parameter blocks, one per experiment family: the
// characterization grids, Figure 10, the attack grid, the Pareto sweep
// (whose BLISSStreaks/BLISSClears fields are the BLISS
// scheduler-parameter axes), and the TRR dodge study (duty-cycle/phase
// pacing × sampler rate/table-size).
type (
	CharParams     = core.CharParams
	Fig10Params    = core.Fig10Params
	AttackParams   = core.AttackParams
	ParetoParams   = core.ParetoParams
	TRRDodgeParams = core.TRRDodgeParams
)

// Experiments lists the registry in canonical order.
func Experiments() []ExperimentInfo { return core.Experiments() }

// NewExperimentSpec builds a validated spec from a name, seed and a
// parameter struct (nil = defaults).
func NewExperimentSpec(name string, seed uint64, params any) (ExperimentSpec, error) {
	return core.NewSpec(name, seed, params)
}

// DecodeExperimentSpec parses and validates a spec from JSON.
func DecodeExperimentSpec(data []byte) (ExperimentSpec, error) { return core.DecodeSpec(data) }

// ParseExperimentShard parses the "index/count" CLI form.
func ParseExperimentShard(v string) (ExperimentShard, error) { return core.ParseShard(v) }

// RunExperiment executes a spec's shard of its experiment; canceling ctx
// stops it starting new grid tasks.
func RunExperiment(ctx context.Context, spec ExperimentSpec, ex ExperimentExec) (*ExperimentResult, error) {
	return core.RunContext(ctx, spec, ex)
}

// DecodeExperimentResult parses an encoded result.
func DecodeExperimentResult(data []byte) (*ExperimentResult, error) { return core.DecodeResult(data) }

// MergeExperimentResults recombines shard results of one spec.
func MergeExperimentResults(parts ...*ExperimentResult) (*ExperimentResult, error) {
	return core.MergeResults(parts...)
}

// Artifact is a complete result's typed table or figure
// (ExperimentResult.Artifact); a type assertion recovers the concrete
// artifact, e.g. art.(*Table1).
type Artifact = core.Artifact

// The typed artifacts of the paper's tables and figures.
type (
	Table1      = core.Table1
	Table2      = core.Table2
	Table3      = core.Table3
	Table4      = core.Table4
	Table5      = core.Table5
	ModuleTable = core.ModuleTable
	Figure4     = core.Figure4
	Figure5     = core.Figure5
	Figure6     = core.Figure6
	Figure7     = core.Figure7
	Figure8     = core.Figure8
	Figure9     = core.Figure9
	Figure10    = core.Figure10
)

// --- System simulation -------------------------------------------------

// SimConfig describes one simulated system (Table 6).
type SimConfig = sim.Config

// SimResult reports one simulation run.
type SimResult = sim.Result

// Mix is a multi-programmed workload.
type Mix = trace.Mix

// Mechanism is a RowHammer mitigation mechanism.
type Mechanism = mitigation.Mechanism

// MitigationParams parameterizes a mechanism for a chip's HCfirst.
type MitigationParams = mitigation.Params

// Table6SimConfig returns the paper's simulated system configuration.
func Table6SimConfig(warmup, measure int64) SimConfig { return sim.Table6Config(warmup, measure) }

// RunSim simulates a mix on a configuration.
func RunSim(cfg SimConfig, mix Mix) (*SimResult, error) { return sim.Run(cfg, mix) }

// WorkloadMixes builds deterministic multi-programmed mixes.
func WorkloadMixes(n, cores, records int, seed uint64) []Mix {
	return trace.Mixes(n, cores, records, seed)
}

// Mechanism constructors (Section 6.1, plus the post-paper BlockHammer).
func NewPARA(p MitigationParams, tckPS int64) (Mechanism, error) {
	return mitigation.NewPARA(p, tckPS)
}
func NewIncreasedRefresh(p MitigationParams) (Mechanism, error) {
	return mitigation.NewIncreasedRefresh(p)
}
func NewProHIT(p MitigationParams) (Mechanism, error) { return mitigation.NewProHIT(p) }
func NewMRLoc(p MitigationParams) (Mechanism, error)  { return mitigation.NewMRLoc(p) }
func NewTWiCe(p MitigationParams, ideal bool) (Mechanism, error) {
	return mitigation.NewTWiCe(p, ideal)
}
func NewIdealMechanism(p MitigationParams) (Mechanism, error) { return mitigation.NewIdeal(p) }

// NewBlockHammer builds the throttling defense with proportional
// per-requester RowBlocker-Req queue admission per BlockHammer's full
// design: a blacklisted-row request is delayed in proportion to its
// source thread's RowHammer likelihood index. NewBlockHammerBinary keeps
// the binary RHLI ≥ 1 gate (the previous default) for comparison, and
// NewBlockHammerBlanket the legacy requester-blind policy. All three
// share the same RowBlocker-Act spacing, so the security guarantee is
// identical.
func NewBlockHammer(p MitigationParams) (Mechanism, error) { return mitigation.NewBlockHammer(p) }
func NewBlockHammerBinary(p MitigationParams) (Mechanism, error) {
	return mitigation.NewBlockHammerBinary(p)
}
func NewBlockHammerBlanket(p MitigationParams) (Mechanism, error) {
	return mitigation.NewBlockHammerBlanket(p)
}

// TRRConfig parameterizes the in-DRAM counter-sampled Target Row Refresh
// model: sampling rate, per-bank table size, service threshold and the
// observation-window fraction of each refresh interval.
type TRRConfig = mitigation.TRRConfig

// NewTRR builds the TRR sampler with default parameters; NewTRRWithConfig
// takes explicit ones (zero fields keep the defaults). TRR is the
// sampling defense the trr-dodge experiment paces attacks around
// (mechanism ID "TRR" in the attack/pareto grids).
func NewTRR(p MitigationParams) (Mechanism, error) { return mitigation.NewTRR(p) }
func NewTRRWithConfig(p MitigationParams, cfg TRRConfig) (Mechanism, error) {
	return mitigation.NewTRRWithConfig(p, cfg)
}

// RequesterNone marks a memory request whose source thread is unknown.
const RequesterNone = mitigation.RequesterNone

// DDR4Timing returns the DDR4-2400 timing set used by the simulations.
func DDR4Timing(rowsPerBank int) dram.Timing { return dram.DDR4_2400(rowsPerBank) }

// --- Attack subsystem ----------------------------------------------------

// AttackKind identifies an adversarial access pattern (single-sided,
// double-sided, TRRespass-style many-sided, scattered multi-bank,
// decoy-interleaved).
type AttackKind = attack.Kind

// Attack pattern catalog.
const (
	AttackSingleSided = attack.SingleSided
	AttackDoubleSided = attack.DoubleSided
	AttackManySided   = attack.ManySided
	AttackScattered   = attack.Scattered
	AttackDecoy       = attack.Decoy
)

// AttackKinds lists the pattern catalog in evaluation order.
func AttackKinds() []AttackKind { return attack.Kinds() }

// AttackSpec parameterizes one synthesized attack stream; its Synthesize
// method turns a spec plus a victim target into a first-class Trace of
// uncached hammering reads.
type AttackSpec = attack.Spec

// AttackTarget anchors an attack at a victim (bank, row).
type AttackTarget = attack.Target

// AttackRowRef names one row an attack stream deliberately activates.
type AttackRowRef = attack.RowRef

// HammerObserver is the per-bank hammer accountant coupling a memory
// controller's ACT/REF command stream to a fault-model chip; it
// implements SimConfig's CommandObserver hook.
type HammerObserver = attack.Observer

// AttackFlipEvent is one escaped bit flip with its crossing cycle.
type AttackFlipEvent = attack.FlipEvent

// NewHammerObserver builds an accountant over a chip (which must have a
// written data pattern).
func NewHammerObserver(chip *Chip) *HammerObserver { return attack.NewObserver(chip) }

// AttackEval is the attack experiment's result: mixed attacker+benign
// simulations over a (mechanism × pattern × HCfirst) grid, reporting
// escaped flips, time to first flip and achieved aggressor ACT rate
// alongside benign performance and bandwidth overhead.
type AttackEval = core.AttackEval

// AttackPoint is one (mechanism, pattern, HCfirst) outcome.
type AttackPoint = core.AttackPoint

// MechanismID names a mechanism in the evaluation runners.
type MechanismID = core.MechanismID

// REFWindow summarizes the command stream a HammerObserver saw between two
// consecutive REF commands (the TRR sampling granularity).
type REFWindow = attack.REFWindow

// SchedulerID names a memory-controller scheduling policy of the sweep
// runners' scheduler axis: the paper's FR-FCFS baseline or the
// fairness-aware BLISS variant (per-requester service-streak
// blacklisting).
type SchedulerID = core.SchedulerID

// Scheduler axis.
const (
	SchedFRFCFS = core.SchedFRFCFS
	SchedBLISS  = core.SchedBLISS
)

// Schedulers lists the scheduler axis in evaluation order.
func Schedulers() []SchedulerID { return core.Schedulers() }

// ParetoSweep is the pareto experiment's result: worst-case escaped
// flips against worst-case benign throughput per (mechanism, scheduler,
// HCfirst) point, with the frontier marked per HCfirst — the BlockHammer
// paper's Figure 11 shape, generalized with a scheduler axis.
// ParetoPoint is one frontier candidate.
type ParetoSweep = core.ParetoSweep
type ParetoPoint = core.ParetoPoint

// TRRDodge is the trr-dodge experiment's result: a (sampler rate ×
// table size × pattern × duty-cycle × phase) grid of attacks against the
// in-DRAM TRR sampler. Duty cycle 0 is the full-rate baseline; the
// headline finding is a paced attack escaping a sampler configuration
// that blocks the same attack at full rate. DodgePoint is one grid cell
// with its security outcome, sampler effort and per-REF timeline
// evidence.
type TRRDodge = core.TRRDodge
type DodgePoint = core.DodgePoint

// --- DRAM substrate ------------------------------------------------------

// Channel is a cycle-accurate DRAM channel state machine.
type Channel = dram.Channel

// Geometry describes a channel's structure.
type Geometry = dram.Geometry

// Address is a (rank, bank, row, column) coordinate.
type Address = dram.Address

// AddressMapper translates byte addresses to DRAM coordinates and back.
type AddressMapper = dram.AddressMapper

// Timing holds JEDEC timing parameters in memory-clock cycles.
type Timing = dram.Timing

// MemController is the FR-FCFS memory controller with the mitigation hook.
type MemController = memctrl.Controller

// MemControllerConfig sizes the controller queues.
type MemControllerConfig = memctrl.Config

// Table6Geometry returns the paper's simulated DRAM geometry.
func Table6Geometry() Geometry { return dram.Table6Geometry() }

// NewChannel builds a DRAM channel.
func NewChannel(geo Geometry, t Timing) (*Channel, error) { return dram.NewChannel(geo, t) }

// NewAddressMapper builds the address translator for a geometry.
func NewAddressMapper(geo Geometry) (*AddressMapper, error) { return dram.NewAddressMapper(geo) }

// NewMemController builds a controller over a single-rank channel; mech
// may be nil.
func NewMemController(cfg MemControllerConfig, ch *Channel, mech Mechanism) (*MemController, error) {
	return memctrl.New(cfg, ch, mech)
}

// Table6MemControllerConfig returns the paper's controller parameters.
func Table6MemControllerConfig() MemControllerConfig { return memctrl.Table6Config() }
