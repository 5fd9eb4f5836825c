package chips

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/stats"
)

// ChipSpec describes one chip of the population: which module it sits on
// and its ground-truth weakest-cell hammer count. Instantiating the spec
// yields a faultmodel.Chip whose measured HCfirst reproduces it.
type ChipSpec struct {
	Name   string
	Module string
	Mfr    string
	Node   TypeNode

	// HCFirst is the chip's weakest-cell threshold in hammers. Values
	// above 150k make the chip "not RowHammerable" in the paper's sweep.
	HCFirst float64

	Seed uint64
}

// RowHammerable reports whether the chip flips within the paper's
// HC ≤ 150k sweep (Section 5.1).
func (cs ChipSpec) RowHammerable() bool { return cs.HCFirst <= 150_000 }

// Scale sets the geometry used when instantiating chips and how many
// chips per module to instantiate. Real chips (16k+ rows, 8 KiB rows)
// make full-population characterization take CPU-hours; the paper's
// statistics are rate-based, so smaller arrays preserve every shape.
type Scale struct {
	Banks   int
	Rows    int
	RowBits int // data bits per row
	// ChipsPerModule caps instantiated chips per module; 0 means all.
	ChipsPerModule int
}

// Predefined scales. Tiny is for unit tests, Small for quick CLI runs,
// Medium for the benchmark harness, Full for overnight-style runs.
var (
	ScaleTiny   = Scale{Banks: 1, Rows: 256, RowBits: 1024, ChipsPerModule: 1}
	ScaleSmall  = Scale{Banks: 1, Rows: 512, RowBits: 2048, ChipsPerModule: 1}
	ScaleMedium = Scale{Banks: 1, Rows: 2048, RowBits: 4096, ChipsPerModule: 2}
	ScaleFull   = Scale{Banks: 1, Rows: 8192, RowBits: 8192}
)

// Population is the set of chips generated from a module list. Chip specs
// are cheap; the backing faultmodel.Chip is built on demand via
// Instantiate so experiments can stream through chips one at a time.
type Population struct {
	Modules []ModuleSpec
	Chips   []ChipSpec
	Scale   Scale
}

// NewPopulation samples the per-chip HCfirst values of every module
// deterministically from seed. ChipsPerModule from the scale limits how
// many chips per module enter the population (the first chip always
// carries the module's published minimum HCfirst).
func NewPopulation(modules []ModuleSpec, scale Scale, seed uint64) *Population {
	p := &Population{Modules: modules, Scale: scale}
	rng := stats.NewRNG(seed)
	for _, m := range modules {
		mrng := rng.Fork()
		limit := m.Chips
		if scale.ChipsPerModule > 0 && scale.ChipsPerModule < limit {
			limit = scale.ChipsPerModule
		}
		for i := 0; i < limit; i++ {
			hc := sampleChipHCFirst(m, i, mrng)
			p.Chips = append(p.Chips, ChipSpec{
				Name:    fmt.Sprintf("%s-chip%02d", m.ID, i),
				Module:  m.ID,
				Mfr:     m.Mfr,
				Node:    m.Node,
				HCFirst: hc,
				Seed:    mrng.Uint64(),
			})
		}
	}
	return p
}

// sampleChipHCFirst draws chip i's weakest-cell hammer count for module m.
func sampleChipHCFirst(m ModuleSpec, i int, rng *stats.RNG) float64 {
	if m.MinHCFirst == 0 {
		// "N/A" module: no flips observed within the sweep.
		return rng.Range(320_000, 600_000)
	}
	if i == 0 {
		return m.MinHCFirst
	}
	vulnerable := m.VulnChips == -1 || i < m.VulnChips
	if !vulnerable {
		return rng.Range(200_000, 400_000)
	}
	u := rng.Float64()
	u = u * u // bias chips toward the module minimum
	if m.MinHCFirst >= 150_000 {
		return m.MinHCFirst * (1 + 0.5*u)
	}
	f := 150_000/m.MinHCFirst - 1
	if f > 1.2 {
		f = 1.2
	}
	return m.MinHCFirst * (1 + f*u)
}

// Instantiate builds the fault-model chip for a spec at the population's
// scale.
func (p *Population) Instantiate(cs ChipSpec) (*faultmodel.Chip, error) {
	cal := calibration(cs.Node, cs.Mfr)
	cfg := faultmodel.Config{
		Name:            cs.Name,
		Type:            cs.Node.Type,
		Node:            cs.Node.Node,
		Mfr:             cs.Mfr,
		Banks:           p.Scale.Banks,
		Rows:            p.Scale.Rows,
		RowBits:         p.Scale.RowBits,
		HCFirst:         cs.HCFirst,
		Rate150k:        cal.rate150k,
		W3:              cal.w3,
		W5:              cal.w5,
		WorstPattern:    cal.worst,
		ClusterP:        cal.clusterP,
		OnDieECC:        cs.Node.Type == dram.LPDDR4,
		PairedWordlines: cs.Node == LPDDR4x && cs.Mfr == "B",
		Seed:            cs.Seed,
	}
	return faultmodel.NewChip(cfg)
}

// CensusRow is one cell of Table 1: chips (modules) of a configuration.
type CensusRow struct {
	Node    TypeNode
	Mfr     string
	Chips   int
	Modules int
}

// Census tabulates the full module list (Table 1), independent of the
// ChipsPerModule instantiation cap.
func (p *Population) Census() []CensusRow {
	idx := make(map[TypeNode]map[string]*CensusRow)
	for _, m := range p.Modules {
		byMfr, ok := idx[m.Node]
		if !ok {
			byMfr = make(map[string]*CensusRow)
			idx[m.Node] = byMfr
		}
		row, ok := byMfr[m.Mfr]
		if !ok {
			row = &CensusRow{Node: m.Node, Mfr: m.Mfr}
			byMfr[m.Mfr] = row
		}
		row.Modules++
		row.Chips += m.Chips
	}
	var rows []CensusRow
	for _, tn := range TypeNodes {
		for _, mfr := range Manufacturers {
			if r, ok := idx[tn][mfr]; ok {
				rows = append(rows, *r)
			}
		}
	}
	return rows
}

// SpecRowHammerable tabulates, per configuration, how many chips of the
// *full* module list have HCfirst ≤ 150k (the ground truth behind Table
// 2). It samples every chip of every module regardless of the
// instantiation cap, using the same deterministic draws as NewPopulation.
func SpecRowHammerable(modules []ModuleSpec, seed uint64) map[TypeNode]map[string][2]int {
	full := NewPopulation(modules, Scale{Banks: 1, Rows: 256, RowBits: 1024}, seed)
	out := make(map[TypeNode]map[string][2]int)
	for _, c := range full.Chips {
		byMfr, ok := out[c.Node]
		if !ok {
			byMfr = make(map[string][2]int)
			out[c.Node] = byMfr
		}
		v := byMfr[c.Mfr]
		if c.RowHammerable() {
			v[0]++
		}
		v[1]++
		byMfr[c.Mfr] = v
	}
	return out
}
