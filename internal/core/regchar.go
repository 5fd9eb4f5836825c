package core

// Registry entries for the characterization experiments. Each entry
// splits the old monolithic runner into the three spec-API phases:
//
//   - enumerate: build the deterministic task grid (one task per chip or
//     per configuration) from the spec's params — identical in every
//     shard, so stable task keys partition the grid exactly once;
//   - cell: run one task against its own instantiated chip, returning a
//     JSON-serializable cell;
//   - finalize: fold the complete, ordered cell list into the artifact
//     (the aggregation functions in characterization.go).

import (
	"fmt"

	"repro/internal/charact"
	"repro/internal/chips"
)

// charPlan is one characterization experiment's resolved task grid:
// the population built from the normalized params, the stride and
// iteration count its cells measure with, and the (configuration, chip)
// jobs.
type charPlan struct {
	stride int
	iters  int
	pop    *chips.Population
	keys   []ConfigKey
	jobs   []chipJob
}

// charGridDef describes how an experiment builds its grid.
type charGridDef struct {
	// keys filters the configuration list (nil = every configuration).
	keys func() []ConfigKey
	// rep picks one representative chip per configuration instead of
	// every instantiated chip.
	rep bool
	// keep filters chips (nil = all).
	keep func(ConfigKey, chips.ChipSpec) bool
	// defaultIters is the paper's iteration count when the spec leaves
	// Iterations at 0.
	defaultIters int
}

// normalize resolves the experiment's CharParams defaults.
func (def charGridDef) normalize(p CharParams) CharParams { return p.normalized(def.defaultIters) }

// newCharPlan expands normalized params into the experiment's task grid.
func newCharPlan(p CharParams, seed uint64, def charGridDef) *charPlan {
	plan := &charPlan{stride: p.Stride, iters: p.Iterations, pop: p.population(seed)}
	byCfg := chipsByConfig(plan.pop, p.Chips)
	if def.keys != nil {
		plan.keys = def.keys()
	} else {
		plan.keys = ConfigKeys()
	}
	if def.rep {
		plan.jobs = repGrid(plan.keys, byCfg, def.keep)
	} else {
		plan.jobs = chipGrid(plan.keys, byCfg, def.keep)
	}
	return plan
}

// jobKeys renders the stable task keys: configuration plus chip name.
func (pl *charPlan) jobKeys() []string {
	keys := make([]string, len(pl.jobs))
	for i, j := range pl.jobs {
		keys[i] = j.key.String() + "/" + j.spec.Name
	}
	return keys
}

// charExperiment wires one chip-grid experiment into the registry.
func charExperiment[C any](name, desc string, def charGridDef,
	cell func(pl *charPlan, j chipJob) (C, error),
	finalize func(pl *charPlan, cells []C) (Artifact, error),
) {
	register(name, desc, def.normalize,
		func(rc *runCtx, p CharParams) (*Result, error) {
			pl := newCharPlan(p, rc.spec.Seed, def)
			return gridResult(rc, nil, pl.jobKeys(), pl.jobs,
				func(j chipJob, _ uint64) (C, error) { return cell(pl, j) })
		},
		func(res *Result, p CharParams) (Artifact, error) {
			pl := newCharPlan(p, res.Spec.Seed, def)
			cells, err := cellsInOrder[C](res, pl.jobKeys())
			if err != nil {
				return nil, err
			}
			return finalize(pl, cells)
		})
}

// rowHammerableOnly keeps the chips the paper's normalized-rate and
// ECC-word studies can measure.
func rowHammerableOnly(_ ConfigKey, s chips.ChipSpec) bool { return s.RowHammerable() }

// nonDDR3OldKeys excludes the configurations the paper skips in Table 5.
func nonDDR3OldKeys() []ConfigKey {
	var keys []ConfigKey
	for _, k := range ConfigKeys() {
		if k.Node == chips.DDR3Old {
			continue
		}
		keys = append(keys, k)
	}
	return keys
}

// figure9Keys excludes LPDDR4 (on-die ECC obfuscates raw flips) and the
// non-RowHammerable DDR3-old configurations.
func figure9Keys() []ConfigKey {
	var keys []ConfigKey
	for _, k := range ConfigKeys() {
		if k.Node == chips.LPDDR4x || k.Node == chips.LPDDR4y || k.Node == chips.DDR3Old {
			continue
		}
		keys = append(keys, k)
	}
	return keys
}

// ddr3Keys is Table 2's configuration list.
func ddr3Keys() []ConfigKey {
	var keys []ConfigKey
	for _, k := range ConfigKeys() {
		if k.Node.Type != chips.DDR3Old.Type {
			continue
		}
		keys = append(keys, k)
	}
	return keys
}

// coverageCell runs one configuration's Figure 4 / Table 3 measurement.
func coverageCell(pl *charPlan, j chipJob) (CoverageRow, error) {
	t, err := newTester(pl.pop, j.spec)
	if err != nil {
		return CoverageRow{}, err
	}
	hc := figure4HC
	if hc > t.MaxHC {
		hc = t.MaxHC
	}
	cov, err := t.MeasureCoverage(hc, pl.iters, pl.stride)
	if err != nil {
		return CoverageRow{}, fmt.Errorf("coverage %v: %w", j.key, err)
	}
	worst, wok := cov.WorstPattern()
	return CoverageRow{
		Key:        j.key,
		Chip:       j.spec.Name,
		Coverage:   cov.Coverage,
		TotalFlips: cov.Total,
		Worst:      worst,
		WorstOK:    wok,
		PaperWorst: chips.WorstPattern(j.key.Node, j.key.Mfr),
	}, nil
}

func init() {
	coverageGrid := charGridDef{rep: true, defaultIters: 10}

	// table1: the census is one task over the whole module list.
	register("table1", "Table 1: DRAM chip population census", charGridDef{}.normalize,
		func(rc *runCtx, p CharParams) (*Result, error) {
			pop := p.population(rc.spec.Seed)
			return gridResult(rc, nil, []string{"census"}, []int{0},
				func(int, uint64) ([]chips.CensusRow, error) {
					return pop.Census(), nil
				})
		},
		func(res *Result, _ CharParams) (Artifact, error) {
			rows, err := cellsInOrder[[]chips.CensusRow](res, []string{"census"})
			if err != nil {
				return nil, err
			}
			return &Table1{Rows: rows[0]}, nil
		})

	// table2: one task per DDR3 configuration over the ground-truth
	// spec census.
	register("table2", "Table 2: RowHammerable DDR3 chips at HC < 150k", charGridDef{}.normalize,
		func(rc *runCtx, p CharParams) (*Result, error) {
			// One ground-truth census shared by every configuration cell.
			counts := chips.SpecRowHammerable(moduleSets[p.Modules](), rc.spec.Seed)
			keys := ddr3Keys()
			return gridResult(rc, nil, configKeyStrings(keys), keys,
				func(k ConfigKey, _ uint64) (Table2Row, error) {
					v := counts[k.Node][k.Mfr]
					return Table2Row{Key: k, Vulnerable: v[0], Total: v[1]}, nil
				})
		},
		func(res *Result, _ CharParams) (Artifact, error) {
			rows, err := cellsInOrder[Table2Row](res, configKeyStrings(ddr3Keys()))
			if err != nil {
				return nil, err
			}
			return &Table2{Rows: rows}, nil
		})

	charExperiment("fig4", "Figure 4: data-pattern coverage per configuration",
		coverageGrid, coverageCell,
		func(_ *charPlan, cells []CoverageRow) (Artifact, error) {
			return &Figure4{HC: figure4HC, Rows: cells}, nil
		})

	charExperiment("table3", "Table 3: worst-case data pattern per configuration",
		coverageGrid, coverageCell,
		func(_ *charPlan, cells []CoverageRow) (Artifact, error) {
			return &Table3{Rows: cells}, nil
		})

	charExperiment("fig5", "Figure 5: hammer count vs. bit-flip rate with log-log fits",
		charGridDef{},
		func(pl *charPlan, j chipJob) (map[int]float64, error) {
			t, err := newTester(pl.pop, j.spec)
			if err != nil {
				return nil, err
			}
			curve, err := t.RateCurve(charact.DefaultRateHCs(), pl.stride)
			if err != nil {
				return nil, fmt.Errorf("rate curve %v: %w", j.key, err)
			}
			return curve, nil
		},
		func(pl *charPlan, cells []map[int]float64) (Artifact, error) {
			return finalizeFigure5(pl.keys, pl.jobs, cells), nil
		})

	charExperiment("fig6", "Figure 6: flip distribution by distance from the victim row",
		charGridDef{keep: rowHammerableOnly},
		func(pl *charPlan, j chipJob) (*spatialCell, error) {
			t, err := newTester(pl.pop, j.spec)
			if err != nil {
				return nil, err
			}
			hc, err := t.HCForRate(normalizedRate, pl.stride)
			if err != nil {
				return nil, err
			}
			sp, err := t.MeasureSpatial(hc, pl.stride)
			if err != nil {
				return nil, err
			}
			if sp.Total == 0 {
				return nil, nil
			}
			return &spatialCell{Fraction: sp.Fraction}, nil
		},
		func(pl *charPlan, cells []*spatialCell) (Artifact, error) {
			return finalizeFigure6(pl.keys, pl.jobs, cells), nil
		})

	charExperiment("fig7", "Figure 7: flips per 64-bit word at the normalized rate",
		charGridDef{keep: rowHammerableOnly},
		func(pl *charPlan, j chipJob) (*wordCell, error) {
			t, err := newTester(pl.pop, j.spec)
			if err != nil {
				return nil, err
			}
			hc, err := t.HCForRate(normalizedRate, pl.stride)
			if err != nil {
				return nil, err
			}
			wd, err := t.MeasureWordDensity(hc, pl.stride)
			if err != nil {
				return nil, err
			}
			if wd.Words == 0 {
				return nil, nil
			}
			return &wordCell{Fraction: wd.Fraction}, nil
		},
		func(pl *charPlan, cells []*wordCell) (Artifact, error) {
			return finalizeFigure7(pl.keys, pl.jobs, cells), nil
		})

	hcFirstCellFn := func(pl *charPlan, j chipJob) (hcFirstCell, error) {
		t, err := newTester(pl.pop, j.spec)
		if err != nil {
			return hcFirstCell{}, err
		}
		hc, found, err := t.MeasureHCFirst(pl.stride)
		if err != nil {
			return hcFirstCell{}, fmt.Errorf("hcfirst %s: %w", j.spec.Name, err)
		}
		return hcFirstCell{HC: float64(hc), Found: found}, nil
	}
	charExperiment("fig8", "Figure 8: HCfirst distribution per configuration",
		charGridDef{}, hcFirstCellFn,
		func(pl *charPlan, cells []hcFirstCell) (Artifact, error) {
			study, err := finalizeHCFirst(pl.keys, pl.jobs, cells)
			if err != nil {
				return nil, err
			}
			return &Figure8{HCFirstStudy: study}, nil
		})
	charExperiment("table4", "Table 4: lowest HCfirst per configuration",
		charGridDef{}, hcFirstCellFn,
		func(pl *charPlan, cells []hcFirstCell) (Artifact, error) {
			study, err := finalizeHCFirst(pl.keys, pl.jobs, cells)
			if err != nil {
				return nil, err
			}
			return &Table4{HCFirstStudy: study}, nil
		})

	charExperiment("fig9", "Figure 9: HC to first 1/2/3-flip 64-bit word (ECC granularity)",
		charGridDef{keys: figure9Keys, keep: rowHammerableOnly},
		func(pl *charPlan, j chipJob) (eccCell, error) {
			t, err := newTester(pl.pop, j.spec)
			if err != nil {
				return eccCell{}, err
			}
			a := t.AnalyzeECCWords()
			var s eccCell
			for kk := 1; kk <= 3; kk++ {
				s.HC[kk], s.Found[kk] = a.HC[kk], a.Found[kk]
			}
			for kk := 1; kk <= 2; kk++ {
				s.Mult[kk], s.MultOK[kk] = a.Multiplier(kk)
			}
			return s, nil
		},
		func(pl *charPlan, cells []eccCell) (Artifact, error) {
			return finalizeFigure9(pl.keys, pl.jobs, cells), nil
		})

	charExperiment("table5", "Table 5: cells with monotonically increasing flip probability",
		charGridDef{keys: nonDDR3OldKeys, rep: true, keep: rowHammerableOnly, defaultIters: 20},
		func(pl *charPlan, j chipJob) (*Table5Row, error) {
			t, err := newTester(pl.pop, j.spec)
			if err != nil {
				return nil, err
			}
			m, err := t.MeasureMonotonicity(nil, pl.iters, pl.stride)
			if err != nil {
				return nil, fmt.Errorf("monotonicity %v: %w", j.key, err)
			}
			if m.Cells == 0 {
				return nil, nil
			}
			return &Table5Row{Key: j.key, Percent: m.Percent(), Cells: m.Cells}, nil
		},
		func(pl *charPlan, cells []*Table5Row) (Artifact, error) {
			t5 := &Table5{Iterations: pl.iters}
			for _, r := range cells {
				if r != nil {
					t5.Rows = append(t5.Rows, *r)
				}
			}
			return t5, nil
		})

	// table7/table8: static module tables, one task each. They accept
	// CharParams for spec-template uniformity but the population tables
	// are scale-independent.
	moduleTable := func(name, desc, title string, modules func() []chips.ModuleSpec) {
		register(name, desc, charGridDef{}.normalize,
			func(rc *runCtx, _ CharParams) (*Result, error) {
				return gridResult(rc, nil, []string{"modules"}, []int{0},
					func(int, uint64) ([]chips.ModuleSpec, error) {
						return modules(), nil
					})
			},
			func(res *Result, _ CharParams) (Artifact, error) {
				mods, err := cellsInOrder[[]chips.ModuleSpec](res, []string{"modules"})
				if err != nil {
					return nil, err
				}
				return &ModuleTable{Title: title, Modules: mods[0]}, nil
			})
	}
	moduleTable("table7", "Table 7: DDR4 module population", "Table 7: DDR4 modules", chips.DDR4Modules)
	moduleTable("table8", "Table 8: DDR3 module population", "Table 8: DDR3 modules", chips.DDR3Modules)
}

// configKeyStrings renders a configuration list as task keys.
func configKeyStrings(keys []ConfigKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}
