package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MechanismID names the evaluated mechanisms.
type MechanismID string

const (
	MechNone             MechanismID = "None"
	MechIncreasedRefresh MechanismID = "IncreasedRefresh"
	MechPARA             MechanismID = "PARA"
	MechProHIT           MechanismID = "ProHIT"
	MechMRLoc            MechanismID = "MRLoc"
	MechTWiCe            MechanismID = "TWiCe"
	MechTWiCeIdeal       MechanismID = "TWiCe-ideal"
	MechIdeal            MechanismID = "Ideal"
	// MechBlockHammer is the post-paper throttling contender evaluated by
	// the attack experiment; it is not part of Figure 10's
	// paper-faithful mechanism list but can be requested explicitly. Its
	// RowBlocker-Req queue admission is requester-aware and proportional:
	// a blacklisted-row request is delayed in proportion to its source
	// thread's RowHammer likelihood index (BlockHammer's full design).
	MechBlockHammer MechanismID = "BlockHammer"
	// MechBlockHammerBinary is BlockHammer with the binary per-requester
	// admission gate (reject outright at RHLI ≥ 1) — the previous default,
	// kept as the comparison baseline for the proportional policy.
	MechBlockHammerBinary MechanismID = "BlockHammer-binary"
	// MechBlockHammerBlanket is BlockHammer with the legacy requester-
	// blind admission policy (reject any blacklisted-row read once the
	// queue is half full) — the baseline the per-thread policies are
	// measured against.
	MechBlockHammerBlanket MechanismID = "BlockHammer-blanket"
	// MechTRR is the in-DRAM counter-sampled Target Row Refresh model
	// (default sampler parameters): a small per-bank sampler table fed by
	// the activation stream in the observation window before each REF,
	// with neighbour refreshes piggybacked on REF commands. It is the
	// defense the trr-dodge experiment paces attacks around; that
	// experiment sweeps the sampler's rate/table-size axes directly.
	MechTRR MechanismID = "TRR"
)

// AllMechanisms lists the Figure 10 series in plotting order.
func AllMechanisms() []MechanismID {
	return []MechanismID{
		MechIncreasedRefresh, MechPARA, MechProHIT, MechMRLoc,
		MechTWiCe, MechTWiCeIdeal, MechIdeal,
	}
}

// errUnknownMechanism marks an ID buildMechanism has no constructor for.
var errUnknownMechanism = errors.New("core: unknown mechanism")

// buildMechanism constructs a mechanism instance for an HCfirst point.
// Its switch is the one list of evaluable mechanisms: params validation
// calls it too, to reject IDs it does not know.
func buildMechanism(id MechanismID, cfg sim.Config, hcFirst int, seed uint64) (mitigation.Mechanism, error) {
	p := cfg.MitigationParams(hcFirst, seed)
	switch id {
	case MechNone:
		return mitigation.NewNone(), nil
	case MechBlockHammer:
		return mitigation.NewBlockHammer(p)
	case MechBlockHammerBinary:
		return mitigation.NewBlockHammerBinary(p)
	case MechBlockHammerBlanket:
		return mitigation.NewBlockHammerBlanket(p)
	case MechTRR:
		return mitigation.NewTRR(p)
	case MechIncreasedRefresh:
		return mitigation.NewIncreasedRefresh(p)
	case MechPARA:
		return mitigation.NewPARA(p, cfg.T.TCKPS)
	case MechProHIT:
		return mitigation.NewProHIT(p)
	case MechMRLoc:
		return mitigation.NewMRLoc(p)
	case MechTWiCe:
		return mitigation.NewTWiCe(p, false)
	case MechTWiCeIdeal:
		return mitigation.NewTWiCe(p, true)
	case MechIdeal:
		return mitigation.NewIdeal(p)
	default:
		return nil, fmt.Errorf("%w %q", errUnknownMechanism, id)
	}
}

// hcPointsFor returns the HCfirst sweep points a mechanism is evaluated
// at, following Section 6.2.2: ProHIT and MRLoc only at their published
// 2k point; Increased Refresh and real TWiCe only at ≥32k; PARA,
// TWiCe-ideal and Ideal across the whole sweep.
func hcPointsFor(id MechanismID, sweep []int) []int {
	var out []int
	for _, hc := range sweep {
		switch id {
		case MechProHIT, MechMRLoc:
			if hc == 2000 {
				out = append(out, hc)
			}
		case MechIncreasedRefresh, MechTWiCe:
			if hc >= 32_000 {
				out = append(out, hc)
			}
		case MechTWiCeIdeal:
			if hc < 32_000 {
				out = append(out, hc)
			}
		default:
			out = append(out, hc)
		}
	}
	return out
}

// DefaultHCSweep is the Figure 10 x-axis: 200k down to 64, including the
// ProHIT/MRLoc 2k point and the chips' minimum HCfirst values.
func DefaultHCSweep() []int {
	return []int{200_000, 100_000, 64_000, 32_000, 16_000, 8_000, 4_800,
		2_000, 1_024, 512, 256, 128, 64}
}

// F10Point is one (mechanism, HCfirst) point of Figure 10, aggregated
// across mixes.
type F10Point struct {
	Mechanism MechanismID
	HCFirst   int
	Viable    bool

	// NormPerf is Figure 10b: weighted speedup normalized to the
	// no-mitigation baseline, in percent (mean / min / max across mixes).
	NormPerf, NormPerfMin, NormPerfMax float64

	// Overhead is Figure 10a: DRAM bandwidth overhead percent.
	Overhead, OverheadMin, OverheadMax float64
}

// Figure10 is the full mitigation evaluation.
type Figure10 struct {
	Points   []F10Point
	Mixes    int
	MixMPKIs []float64 // aggregate MPKI per mix on the baseline
}

// Fig10Params is the parameter block of the fig10 experiment. Zero
// fields take the defaults normalized resolves: the paper's 48 8-core
// mixes, its HCfirst sweep and every Figure 10 mechanism, at CLI-scale
// trace lengths (the paper simulates 200M instructions per core).
type Fig10Params struct {
	Mixes        int           `json:"mixes,omitempty"`
	Cores        int           `json:"cores,omitempty"`
	TraceRecords int           `json:"trace_records,omitempty"`
	WarmupInsts  int64         `json:"warmup_insts,omitempty"`
	MeasureInsts int64         `json:"measure_insts,omitempty"`
	HCSweep      []int         `json:"hc,omitempty"`
	Mechanisms   []MechanismID `json:"mechanisms,omitempty"`
}

// Validate rejects unknown mechanisms, non-positive HCfirst points and
// negative sizes at spec decode.
func (p *Fig10Params) Validate() error {
	if err := checkAxes(p.Mechanisms, nil, nil, p.HCSweep); err != nil {
		return err
	}
	return checkSizes(size{"mixes", int64(p.Mixes)}, size{"cores", int64(p.Cores)},
		size{"trace_records", int64(p.TraceRecords)}, size{"warmup_insts", p.WarmupInsts},
		size{"measure_insts", p.MeasureInsts})
}

func (p Fig10Params) normalized() Fig10Params {
	if p.Mixes <= 0 {
		p.Mixes = 48
	}
	if p.Cores <= 0 {
		p.Cores = 8
	}
	if p.TraceRecords <= 0 {
		p.TraceRecords = 4_000
	}
	if p.MeasureInsts <= 0 {
		p.MeasureInsts = 50_000
	}
	if len(p.HCSweep) == 0 {
		p.HCSweep = DefaultHCSweep()
	}
	if len(p.Mechanisms) == 0 {
		p.Mechanisms = AllMechanisms()
	}
	return p
}

// fig10Meta is the shard-invariant metadata: every shard recomputes the
// per-mix baselines identically from the spec's seed.
type fig10Meta struct {
	Mixes    int       `json:"mixes"`
	MixMPKIs []float64 `json:"mix_mpkis"`
}

// fig10Job is one (mechanism, HCfirst) task of the Figure 10 grid.
type fig10Job struct {
	mech MechanismID
	hc   int
}

// fig10Grid enumerates the (mechanism, HCfirst) tasks and their keys.
func fig10Grid(p Fig10Params) (keys []string, jobs []fig10Job) {
	for _, id := range p.Mechanisms {
		for _, hc := range hcPointsFor(id, p.HCSweep) {
			keys = append(keys, fmt.Sprintf("mech=%s/hc=%d", id, hc))
			jobs = append(jobs, fig10Job{mech: id, hc: hc})
		}
	}
	return keys, jobs
}

func init() {
	// fig10 evaluates every mechanism at every applicable HCfirst across
	// the workload mixes. Baseline (no-mitigation) and single-core alone
	// runs are shared across mechanisms. Both phases fan out through the
	// experiment engine, so results are identical for any Parallelism.
	register("fig10", "Figure 10: mitigation-mechanism overhead across the HCfirst sweep", Fig10Params.normalized,
		func(rc *runCtx, p Fig10Params) (*Result, error) {
			seed := rc.spec.Seed
			cfg := sim.Table6Config(p.WarmupInsts, p.MeasureInsts)
			mixes := trace.Mixes(p.Mixes, p.Cores, p.TraceRecords, seed)

			// Phase 1: per-mix baselines. Every shard recomputes them —
			// they are inputs to each grid cell, and being derived purely
			// from the spec's seed they agree bit-for-bit across shards.
			baselines, alones, err := mixBaselines(rc.engineOptions(), cfg, mixes)
			if err != nil {
				return nil, err
			}
			meta := fig10Meta{Mixes: len(mixes)}
			for _, b := range baselines {
				meta.MixMPKIs = append(meta.MixMPKIs, b.mpki)
			}

			// Phase 2: the sharded (mechanism, HCfirst) grid.
			keys, jobs := fig10Grid(p)
			return gridResult(rc, meta, keys, jobs,
				func(jb fig10Job, _ uint64) (F10Point, error) {
					pt, err := runPoint(cfg, seed, jb.mech, jb.hc, mixes, alones, baselines)
					if err != nil {
						return F10Point{}, err
					}
					return *pt, nil
				})
		},
		func(res *Result, p Fig10Params) (Artifact, error) {
			var meta fig10Meta
			if err := json.Unmarshal(res.Meta, &meta); err != nil {
				return nil, fmt.Errorf("core: fig10 meta: %w", err)
			}
			keys, _ := fig10Grid(p)
			points, err := cellsInOrder[F10Point](res, keys)
			if err != nil {
				return nil, err
			}
			fig := &Figure10{Points: points, Mixes: meta.Mixes, MixMPKIs: meta.MixMPKIs}
			sort.SliceStable(fig.Points, func(i, j int) bool {
				if fig.Points[i].Mechanism != fig.Points[j].Mechanism {
					return fig.Points[i].Mechanism < fig.Points[j].Mechanism
				}
				return fig.Points[i].HCFirst > fig.Points[j].HCFirst
			})
			return fig, nil
		})
}

// mixBaseline caches one mix's no-mitigation weighted speedup and MPKI.
type mixBaseline struct {
	ws   float64
	mpki float64
}

// runPoint evaluates one (mechanism, HCfirst) across all mixes.
func runPoint(cfg sim.Config, seed uint64, id MechanismID, hc int,
	mixes []trace.Mix, alones [][]float64, baselines []mixBaseline,
) (*F10Point, error) {
	var perfs, overheads []float64
	viable := true
	for i := range mixes {
		mech, err := buildMechanism(id, cfg, hc, seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		if v, ok := mech.(mitigation.Viability); ok && !v.Viable() {
			viable = false
		}
		runCfg := cfg
		runCfg.Mechanism = mech
		res, err := sim.Run(runCfg, mixes[i])
		if err != nil {
			return nil, fmt.Errorf("%s hc=%d mix=%s: %w", id, hc, mixes[i].Name, err)
		}
		ws, err := sim.WeightedSpeedup(res.IPC, alones[i])
		if err != nil {
			return nil, err
		}
		perfs = append(perfs, 100*ws/baselines[i].ws)
		overheads = append(overheads, res.BandwidthOverheadPct)
	}
	pt := &F10Point{Mechanism: id, HCFirst: hc, Viable: viable}
	pt.NormPerf = stats.Mean(perfs)
	pt.NormPerfMin, _ = stats.Min(perfs)
	pt.NormPerfMax, _ = stats.Max(perfs)
	pt.Overhead = stats.Mean(overheads)
	pt.OverheadMin, _ = stats.Min(overheads)
	pt.OverheadMax, _ = stats.Max(overheads)
	return pt, nil
}

// PointsFor filters Figure 10's points for one mechanism, sorted by
// descending HCfirst (the paper's left-to-right x-axis).
func (f *Figure10) PointsFor(id MechanismID) []F10Point {
	var out []F10Point
	for _, p := range f.Points {
		if p.Mechanism == id {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HCFirst > out[j].HCFirst })
	return out
}
