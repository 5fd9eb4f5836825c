// Package core orchestrates the paper's experiments: it iterates chip
// populations through the charact measurement primitives and the sim
// mitigation harness, aggregates per-configuration statistics, and
// formats each of the paper's tables and figures (DESIGN.md §5).
package core

import (
	"fmt"
	"sort"

	"repro/internal/chips"
	"repro/internal/faultmodel"
)

// ConfigKey identifies one cell of the paper's per-configuration tables.
type ConfigKey struct {
	Node chips.TypeNode
	Mfr  string
}

func (k ConfigKey) String() string { return fmt.Sprintf("%v/Mfr.%s", k.Node, k.Mfr) }

// ConfigKeys lists the populated configurations in the paper's order.
func ConfigKeys() []ConfigKey {
	var keys []ConfigKey
	for _, tn := range chips.TypeNodes {
		for _, mfr := range chips.Manufacturers {
			if chips.HasConfiguration(tn, mfr) {
				keys = append(keys, ConfigKey{Node: tn, Mfr: mfr})
			}
		}
	}
	return keys
}

// chipsByConfig groups population chips per configuration, capped at
// maxChips per configuration (≤ 0 = every chip) keeping the weakest
// chips first (the paper's representative chips are the interesting,
// flippable ones).
func chipsByConfig(pop *chips.Population, maxChips int) map[ConfigKey][]chips.ChipSpec {
	m := make(map[ConfigKey][]chips.ChipSpec)
	for _, c := range pop.Chips {
		k := ConfigKey{Node: c.Node, Mfr: c.Mfr}
		m[k] = append(m[k], c)
	}
	//rhlint:allow mapiter(independent per-key in-place rewrite)
	for k, list := range m {
		// Stable sort with a chip-ID tie-break: equal-HCFirst chips must
		// not depend on incidental input order, or capped selection below
		// would be irreproducible.
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].HCFirst != list[j].HCFirst {
				return list[i].HCFirst < list[j].HCFirst
			}
			return list[i].Name < list[j].Name
		})
		if maxChips > 0 && len(list) > maxChips {
			list = list[:maxChips]
		}
		m[k] = list
	}
	return m
}

// representative returns the chip the per-chip figures use: the weakest
// (most RowHammerable) chip of the configuration.
func representative(specs []chips.ChipSpec) (chips.ChipSpec, bool) {
	if len(specs) == 0 {
		return chips.ChipSpec{}, false
	}
	best := specs[0]
	for _, s := range specs[1:] {
		if s.HCFirst < best.HCFirst {
			best = s
		}
	}
	return best, true
}

// patternName renders a pattern like the paper's tables ("RowStripe0").
func patternName(p faultmodel.Pattern) string { return p.String() }

// CharParams is the parameter block of every characterization
// experiment in the registry. Zero fields take the defaults normalized
// resolves, which Experiments lists per experiment.
type CharParams struct {
	// Scale names a predefined geometry: tiny, small (default), medium,
	// full.
	Scale string `json:"scale,omitempty"`
	// CustomScale overrides Scale with an explicit geometry.
	CustomScale *chips.Scale `json:"custom_scale,omitempty"`
	// Modules names the population: all (default), ddr3, ddr4, lpddr4.
	Modules string `json:"modules,omitempty"`
	// Chips caps instantiated chips per configuration: 0 means the
	// default cap (4), -1 means every chip.
	Chips int `json:"chips,omitempty"`
	// Stride samples victim rows in full-chip sweeps (0 or 1 = every row).
	Stride int `json:"stride,omitempty"`
	// Iterations for repeated-measurement experiments; 0 keeps each
	// experiment's paper default.
	Iterations int `json:"iterations,omitempty"`
}

// scalesByName maps the predefined geometry names.
var scalesByName = map[string]chips.Scale{
	"tiny":   chips.ScaleTiny,
	"small":  chips.ScaleSmall,
	"medium": chips.ScaleMedium,
	"full":   chips.ScaleFull,
}

// moduleSets maps the named population sets to their module lists.
var moduleSets = map[string]func() []chips.ModuleSpec{
	"all":    chips.AllModules,
	"ddr3":   chips.DDR3Modules,
	"ddr4":   chips.DDR4Modules,
	"lpddr4": chips.LPDDR4Modules,
}

// Validate rejects geometry and population names the registry does not
// define, custom geometries a chip cannot be built on, and negative
// counts other than chips = -1, so a bad spec fails at decode instead of
// inside the run (or as a second store key for the default's bytes).
func (p *CharParams) Validate() error {
	if _, ok := scalesByName[p.Scale]; !ok && p.CustomScale == nil && p.Scale != "" {
		return fmt.Errorf("core: unknown scale %q (tiny, small, medium, full)", p.Scale)
	}
	if s := p.CustomScale; s != nil && s.Rows != 0 {
		// A geometry without rows falls back to the small one (population);
		// any other must fit the most constrained chip a population holds,
		// with on-die ECC and paired wordlines.
		cfg := faultmodel.Config{
			Banks: s.Banks, Rows: s.Rows, RowBits: s.RowBits, HCFirst: 1,
			OnDieECC: true, PairedWordlines: true,
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("core: custom_scale: %w", err)
		}
	}
	if _, ok := moduleSets[p.Modules]; !ok && p.Modules != "" {
		return fmt.Errorf("core: unknown module set %q (all, ddr3, ddr4, lpddr4)", p.Modules)
	}
	switch {
	case p.Chips < -1:
		return fmt.Errorf("core: chips must be -1 (every chip), 0 (the default) or positive, got %d", p.Chips)
	case p.Stride < 0:
		return fmt.Errorf("core: stride must not be negative, got %d", p.Stride)
	case p.Iterations < 0:
		return fmt.Errorf("core: iterations must not be negative, got %d", p.Iterations)
	}
	return nil
}

// normalized resolves every default: the small geometry, every module,
// four chips per configuration, stride 1, and iters iterations (the
// experiment's paper count; 0 for experiments that measure once).
func (p CharParams) normalized(iters int) CharParams {
	if p.CustomScale == nil && p.Scale == "" {
		p.Scale = "small"
	}
	if p.Modules == "" {
		p.Modules = "all"
	}
	if p.Chips == 0 {
		p.Chips = 4
	}
	if p.Stride < 1 {
		p.Stride = 1
	}
	if p.Iterations == 0 {
		p.Iterations = iters
	}
	return p
}

// population samples the chip population the normalized params name.
// CustomScale wins over the named Scale, and a geometry without rows
// falls back to the small one.
func (p CharParams) population(seed uint64) *chips.Population {
	scale := scalesByName[p.Scale]
	if p.CustomScale != nil {
		scale = *p.CustomScale
	}
	if scale.Rows == 0 {
		scale = chips.ScaleSmall
	}
	return chips.NewPopulation(moduleSets[p.Modules](), scale, seed)
}
