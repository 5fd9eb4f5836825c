package core

import (
	"math"
	"sort"

	"repro/internal/charact"
	"repro/internal/chips"
	"repro/internal/faultmodel"
	"repro/internal/stats"
)

// The characterization experiments (Tables 1–5, 7, 8 and Figures 4–9)
// live in the experiment registry (see regchar.go for the task grids and
// per-chip cell runners). This file keeps the artifact types and the
// aggregation logic that turns ordered per-chip cells into each
// artifact.

// newTester instantiates a population chip and wraps it in a tester with
// its worst-case pattern written, the state every experiment starts from.
func newTester(pop *chips.Population, spec chips.ChipSpec) (*charact.Tester, error) {
	chip, err := pop.Instantiate(spec)
	if err != nil {
		return nil, err
	}
	t, err := charact.NewTester(chip, 0)
	if err != nil {
		return nil, err
	}
	t.WritePattern(chip.Config().WorstPattern)
	return t, nil
}

// chipJob is one (configuration, chip) cell of an experiment fan-out. Every
// job is self-contained — it instantiates its own chip from the spec's seed
// — so the engine can run jobs in any order without coupling results.
type chipJob struct {
	cfg  int // index into the runner's ConfigKey slice
	key  ConfigKey
	spec chips.ChipSpec
}

// chipGrid flattens the per-configuration chip lists into a flat task list
// in configuration order, optionally filtering chips. Task order doubles as
// aggregation order, so per-configuration statistics accumulate exactly as
// the original serial loops did.
func chipGrid(keys []ConfigKey, byCfg map[ConfigKey][]chips.ChipSpec, keep func(ConfigKey, chips.ChipSpec) bool) []chipJob {
	var jobs []chipJob
	for ci, k := range keys {
		for _, spec := range byCfg[k] {
			if keep != nil && !keep(k, spec) {
				continue
			}
			jobs = append(jobs, chipJob{cfg: ci, key: k, spec: spec})
		}
	}
	return jobs
}

// repGrid builds one job per configuration using its representative chip.
func repGrid(keys []ConfigKey, byCfg map[ConfigKey][]chips.ChipSpec, keep func(ConfigKey, chips.ChipSpec) bool) []chipJob {
	var jobs []chipJob
	for ci, k := range keys {
		spec, ok := representative(byCfg[k])
		if !ok {
			continue
		}
		if keep != nil && !keep(k, spec) {
			continue
		}
		jobs = append(jobs, chipJob{cfg: ci, key: k, spec: spec})
	}
	return jobs
}

// groupByConfig buckets cells back into per-configuration lists,
// preserving task order within each configuration.
func groupByConfig[R any](nCfg int, jobs []chipJob, results []R) [][]R {
	out := make([][]R, nCfg)
	for i, j := range jobs {
		out[j.cfg] = append(out[j.cfg], results[i])
	}
	return out
}

// --- Table 1 ---------------------------------------------------------------

// Table1 is the chip-population census.
type Table1 struct {
	Rows []chips.CensusRow
}

// --- Table 2 ---------------------------------------------------------------

// Table2Row is one cell of Table 2: RowHammerable DDR3 chips.
type Table2Row struct {
	Key        ConfigKey
	Vulnerable int
	Total      int
}

// Table2 reports the fraction of DDR3 chips with any flips at HC < 150k.
type Table2 struct {
	Rows []Table2Row
}

// --- Figure 4 / Table 3 ----------------------------------------------------

// CoverageRow is one configuration's Figure 4 subplot plus its Table 3
// worst-case pattern.
type CoverageRow struct {
	Key        ConfigKey
	Chip       string
	Coverage   map[faultmodel.Pattern]float64
	TotalFlips int
	Worst      faultmodel.Pattern
	WorstOK    bool // false when not enough flips (paper's empty cells)
	PaperWorst faultmodel.Pattern
}

// Figure4 holds per-configuration data-pattern coverages.
type Figure4 struct {
	HC   int
	Rows []CoverageRow
}

// figure4HC is the paper's Section 5.2 hammer count.
const figure4HC = 150_000

// Table3 derives the worst-case pattern table from Figure 4's data.
type Table3 struct {
	Rows []CoverageRow
}

// --- Figure 5 --------------------------------------------------------------

// RateSeries is one configuration's HC → flip-rate curve with its log-log
// fit (Observation 4).
type RateSeries struct {
	Key    ConfigKey
	Points map[int]float64 // HC → mean rate across chips
	Slope  float64         // log-log slope
	R2     float64
	Chips  int
}

// Figure5 aggregates rate curves per configuration.
type Figure5 struct {
	HCs  []int
	Rows []RateSeries
}

// finalizeFigure5 aggregates ordered per-chip curves per configuration.
func finalizeFigure5(keys []ConfigKey, jobs []chipJob, curves []map[int]float64) *Figure5 {
	hcs := charact.DefaultRateHCs()
	fig := &Figure5{HCs: hcs}
	for ci, perChip := range groupByConfig(len(keys), jobs, curves) {
		if len(perChip) == 0 {
			continue
		}
		sums := make(map[int]float64, len(hcs))
		for _, curve := range perChip {
			// Each bucket receives one addend per chip, in perChip order;
			// map order only picks which bucket is touched first.
			//rhlint:allow mapiter(per-bucket addend order fixed by perChip slice order)
			for hc, r := range curve {
				sums[hc] += r
			}
		}
		n := len(perChip)
		s := RateSeries{Key: keys[ci], Points: make(map[int]float64), Chips: n}
		var xs, ys []float64
		for _, hc := range hcs {
			mean := sums[hc] / float64(n)
			s.Points[hc] = mean
			if mean > 0 {
				xs = append(xs, float64(hc))
				ys = append(ys, mean)
			}
		}
		if len(xs) >= 2 {
			if fit, err := stats.FitLogLog(xs, ys); err == nil {
				s.Slope, s.R2 = fit.Slope, fit.R2
			}
		}
		fig.Rows = append(fig.Rows, s)
	}
	return fig
}

// --- Figure 6 / Figure 7 ---------------------------------------------------

// SpatialRow is one configuration's Figure 6 subplot: mean fraction of
// flips per victim-relative row offset, with standard deviation across
// chips.
type SpatialRow struct {
	Key      ConfigKey
	Mean     map[int]float64
	StdDev   map[int]float64
	Chips    int
	TargetHC string // description of the normalization
}

// Figure6 is the spatial-distribution study.
type Figure6 struct {
	TargetRate float64
	Rows       []SpatialRow
}

// spatialCell is one chip's Figure 6 cell; nil marks a chip that
// produced no flips at the normalized rate.
type spatialCell struct {
	Fraction map[int]float64 `json:"fraction"`
}

// normalizedRate is the paper's Figure 6/7 target flip rate.
const normalizedRate = 1e-6

// finalizeFigure6 aggregates ordered per-chip spatial cells.
func finalizeFigure6(keys []ConfigKey, jobs []chipJob, samples []*spatialCell) *Figure6 {
	fig := &Figure6{TargetRate: normalizedRate}
	for ci, group := range groupByConfig(len(keys), jobs, samples) {
		perOffset := make(map[int][]float64)
		n := 0
		for _, s := range group {
			if s == nil {
				continue
			}
			//rhlint:allow mapiter(one element per chip per offset; per-offset order fixed by group order)
			for off, f := range s.Fraction {
				perOffset[off] = append(perOffset[off], f)
			}
			n++
		}
		if n == 0 {
			continue
		}
		row := SpatialRow{Key: keys[ci], Mean: make(map[int]float64), StdDev: make(map[int]float64), Chips: n}
		//rhlint:allow mapiter(independent per-key writes; JSON encoding sorts the keys)
		for off, fs := range perOffset {
			// Chips without flips at this offset contribute zero.
			for len(fs) < n {
				fs = append(fs, 0)
			}
			row.Mean[off] = stats.Mean(fs)
			row.StdDev[off] = stats.StdDev(fs)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// WordDensityRow is one configuration's Figure 7 subplot.
type WordDensityRow struct {
	Key      ConfigKey
	Fraction [6]float64 // mean fraction of flip-containing words with k flips
	StdDev   [6]float64
	Chips    int
}

// Figure7 is the flips-per-64-bit-word study.
type Figure7 struct {
	TargetRate float64
	Rows       []WordDensityRow
}

// wordCell is one chip's Figure 7 cell; nil marks a chip whose
// normalized run produced no flip-containing words.
type wordCell struct {
	Fraction [6]float64 `json:"fraction"`
}

// finalizeFigure7 aggregates ordered per-chip word-density cells.
func finalizeFigure7(keys []ConfigKey, jobs []chipJob, samples []*wordCell) *Figure7 {
	fig := &Figure7{TargetRate: normalizedRate}
	for ci, group := range groupByConfig(len(keys), jobs, samples) {
		var perK [6][]float64
		n := 0
		for _, s := range group {
			if s == nil {
				continue
			}
			for i := 1; i <= 5; i++ {
				perK[i] = append(perK[i], s.Fraction[i])
			}
			n++
		}
		if n == 0 {
			continue
		}
		row := WordDensityRow{Key: keys[ci], Chips: n}
		for i := 1; i <= 5; i++ {
			row.Fraction[i] = stats.Mean(perK[i])
			row.StdDev[i] = stats.StdDev(perK[i])
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// --- Figure 8 / Table 4 ----------------------------------------------------

// HCFirstRow is one configuration's HCfirst distribution (Figure 8's
// box-and-whisker) and minimum (Table 4).
type HCFirstRow struct {
	Key      ConfigKey
	Measured []float64 // per RowHammerable chip, in hammers
	NoFlips  int       // chips with no flips within the sweep
	Box      stats.BoxPlot
	MinHC    float64
	PaperMin float64
}

// HCFirstStudy is the shared data behind Figure 8 and Table 4.
type HCFirstStudy struct {
	Rows []HCFirstRow
}

// hcFirstCell is one chip's first-flip search result.
type hcFirstCell struct {
	HC    float64 `json:"hc"`
	Found bool    `json:"found"`
}

// finalizeHCFirst aggregates ordered per-chip first-flip cells.
func finalizeHCFirst(keys []ConfigKey, jobs []chipJob, samples []hcFirstCell) (*HCFirstStudy, error) {
	study := &HCFirstStudy{}
	for ci, group := range groupByConfig(len(keys), jobs, samples) {
		if len(group) == 0 {
			continue
		}
		k := keys[ci]
		row := HCFirstRow{Key: k}
		row.PaperMin, _ = chips.PaperHCFirst(k.Node, k.Mfr)
		for _, s := range group {
			if !s.Found {
				row.NoFlips++
				continue
			}
			row.Measured = append(row.Measured, s.HC)
		}
		if len(row.Measured) > 0 {
			box, err := stats.NewBoxPlot(row.Measured)
			if err != nil {
				return nil, err
			}
			row.Box = box
			row.MinHC, _ = stats.Min(row.Measured)
		} else {
			row.MinHC = math.NaN()
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Figure8 and Table4 are the two renderings of the HCfirst study,
// distinct artifacts over the same cells.
type Figure8 struct{ *HCFirstStudy }

// Format renders the Figure 8 box-and-whisker view.
func (f *Figure8) Format() string { return f.FormatFigure8() }

// Table4 is the minimum-HCfirst rendering of the study.
type Table4 struct{ *HCFirstStudy }

// Format renders the Table 4 view.
func (t *Table4) Format() string { return t.FormatTable4() }

// --- Figure 9 --------------------------------------------------------------

// ECCRow is one configuration's Figure 9 bars: mean HC to find the first
// 64-bit word with 1, 2 and 3 flips, and the multipliers between them.
type ECCRow struct {
	Key         ConfigKey
	MeanHC      [4]float64 // index k = flips per word; [0] unused
	StdHC       [4]float64
	Multipliers [3][]float64 // [1]=HC2/HC1, [2]=HC3/HC2 across chips
	Chips       int
}

// Figure9 is the ECC-granularity analysis. LPDDR4 chips are excluded, as
// in the paper (their on-die ECC obfuscates the raw flips).
type Figure9 struct {
	Rows []ECCRow
}

// eccCell is one chip's word-granularity analysis.
type eccCell struct {
	HC     [4]float64 `json:"hc"`
	Found  [4]bool    `json:"found"`
	Mult   [3]float64 `json:"mult"`
	MultOK [3]bool    `json:"mult_ok"`
}

// finalizeFigure9 aggregates ordered per-chip ECC-word cells.
func finalizeFigure9(keys []ConfigKey, jobs []chipJob, samples []eccCell) *Figure9 {
	fig := &Figure9{}
	for ci, group := range groupByConfig(len(keys), jobs, samples) {
		if len(group) == 0 {
			continue
		}
		var hcs [4][]float64
		row := ECCRow{Key: keys[ci], Chips: len(group)}
		for _, s := range group {
			for kk := 1; kk <= 3; kk++ {
				if s.Found[kk] {
					hcs[kk] = append(hcs[kk], s.HC[kk])
				}
			}
			for kk := 1; kk <= 2; kk++ {
				if s.MultOK[kk] {
					row.Multipliers[kk] = append(row.Multipliers[kk], s.Mult[kk])
				}
			}
		}
		for kk := 1; kk <= 3; kk++ {
			row.MeanHC[kk] = stats.Mean(hcs[kk])
			row.StdHC[kk] = stats.StdDev(hcs[kk])
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// --- Table 5 ---------------------------------------------------------------

// Table5Row is one configuration's monotonicity percentage.
type Table5Row struct {
	Key     ConfigKey
	Percent float64
	Cells   int
}

// Table5 is the flip-probability monotonicity study.
type Table5 struct {
	Iterations int
	Rows       []Table5Row
}

// --- Tables 7 and 8 --------------------------------------------------------

// ModuleTable reproduces the appendix module tables.
type ModuleTable struct {
	Title   string
	Modules []chips.ModuleSpec
}

// sortedOffsets returns the keys of an offset map in ascending order.
func sortedOffsets(m map[int]float64) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
