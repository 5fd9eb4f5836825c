package faultmodel

import (
	"fmt"
	"math"

	"repro/internal/dram"
)

// Config describes one simulated DRAM chip's geometry and RowHammer
// vulnerability. The vulnerability parameters are calibrated per DRAM
// type-node configuration and manufacturer by package chips.
type Config struct {
	Name string    // e.g. "A-LPDDR4-1y-chip03"
	Type dram.Type // DDR3, DDR4, LPDDR4
	Node string    // "old", "new", "1x", "1y"
	Mfr  string    // "A", "B", "C"

	// Geometry. RowBits counts *data* bits per row; with on-die ECC the
	// raw row additionally stores 8 parity bits per 128 data bits.
	Banks   int
	Rows    int
	RowBits int

	// HCFirst is the chip's weakest-cell hammer threshold under its
	// worst-case data pattern: the quantity Table 4 and Figure 8 report.
	// One hammer = one activation to each of the two aggressor rows.
	HCFirst float64

	// Rate150k is the target fraction of cells that flip when every row
	// is double-sided hammered with HC = 150k under the worst-case data
	// pattern; together with HCFirst it pins the power-law exponent β of
	// Observation 4. Ignored when HCFirst ≥ 150k (Beta is used directly).
	Rate150k float64

	// Beta overrides the derived power-law exponent when positive.
	Beta float64

	// W3 and W5 are the aggressor coupling weights at odd wordline
	// distances 3 and 5, relative to the distance-1 weight of 0.5
	// (DESIGN.md §4). Zero means no coupling at that distance; newer
	// nodes have a wider blast radius (Observation 6).
	W3, W5 float64

	// WorstPattern is the chip's worst-case data pattern (Table 3).
	WorstPattern Pattern

	// ClusterP is the probability that a vulnerable site grows an extra
	// cell in the same 64-bit word (geometrically, capped at 4 cells),
	// the first extra cell's threshold multiplied by a uniform draw from
	// [clusterLo, clusterHi]. This reproduces the multi-bit words of
	// Figures 7 and 9. Defaults to 0.25.
	ClusterP float64

	// OnDieECC routes every read through a (136,128) single-error-
	// correcting code, as in all tested LPDDR4 chips.
	OnDieECC bool

	// PairedWordlines models the Mfr B LPDDR4-1x internal remapping where
	// logical rows 2k and 2k+1 share one physical wordline.
	PairedWordlines bool

	Seed uint64
}

// Defaults used when the corresponding Config field is zero.
const (
	DefaultClusterP = 0.25
	DefaultBeta     = 3.0
)

const (
	// gamma controls how sharply a cell's flip probability rises around
	// its threshold: P = 1 − 2^−(E/T)^gamma. At 24 the 10%→90% transition
	// spans only a few percent of HC — what Table 5's >97% monotonicity
	// (20 trials, 5k HC steps) implies for real cells.
	gamma = 24.0

	// prefBias is the probability that a vulnerable cell prefers the
	// chip's worst-case pattern rather than a uniformly random one.
	prefBias = 0.55

	// clusterLo and clusterHi bound the factor by which a cluster's
	// second cell's threshold exceeds the first's.
	clusterLo, clusterHi = 1.4, 2.9

	// thresholdCutoff is the largest hammer threshold instantiated as a
	// concrete vulnerable cell. Tests sweep HC ≤ 150k; with gamma = 24 a
	// cell needs T ≤ ~1.4×E to flip with probability above 2·10⁻⁴, so
	// 400k covers every observable flip with margin.
	thresholdCutoff = 400_000.0

	// w1 is the coupling weight at wordline distance 1: each aggressor
	// contributes half a hammer per activation, so a double-sided hammer
	// (one ACT to each neighbor) contributes exactly one.
	w1 = 0.5
)

// normalized returns cfg with defaults applied.
func (cfg Config) normalized() Config {
	if cfg.ClusterP == 0 {
		cfg.ClusterP = DefaultClusterP
	}
	return cfg
}

// Validate reports configuration errors.
func (cfg Config) Validate() error {
	switch {
	case cfg.Banks <= 0:
		return fmt.Errorf("faultmodel: banks must be positive, got %d", cfg.Banks)
	case cfg.Rows < 4:
		// NewChip draws the weakest cell's even row from [2, Rows).
		return fmt.Errorf("faultmodel: rows must be at least 4, got %d", cfg.Rows)
	case cfg.RowBits < 64:
		// NewChip draws the weakest cell's 64-bit data word.
		return fmt.Errorf("faultmodel: row bits must be at least 64, got %d", cfg.RowBits)
	case cfg.HCFirst <= 0:
		return fmt.Errorf("faultmodel: HCFirst must be positive, got %g", cfg.HCFirst)
	case cfg.W3 < 0 || cfg.W5 < 0:
		// Damage must not fall as the hammer count grows (QuietBelow).
		return fmt.Errorf("faultmodel: coupling weights must not be negative, got W3 %g W5 %g", cfg.W3, cfg.W5)
	case cfg.WorstPattern < 0 || cfg.WorstPattern >= NumPatterns:
		return fmt.Errorf("faultmodel: invalid worst pattern %d", int(cfg.WorstPattern))
	case cfg.OnDieECC && cfg.RowBits%128 != 0:
		return fmt.Errorf("faultmodel: on-die ECC requires row bits divisible by 128, got %d", cfg.RowBits)
	case cfg.PairedWordlines && cfg.Rows%2 != 0:
		return fmt.Errorf("faultmodel: paired wordlines require an even row count, got %d", cfg.Rows)
	}
	return nil
}

// beta returns the power-law exponent: the slope of log(#flips) vs
// log(HC) (Observation 4), derived so that a full-chip sweep at HC = 150k
// yields Rate150k flipped cells, or the explicit/default value.
func (cfg Config) beta() float64 {
	if cfg.Beta > 0 {
		return cfg.Beta
	}
	if cfg.HCFirst >= 150_000 || cfg.Rate150k <= 0 {
		return DefaultBeta
	}
	totalBits := float64(cfg.Banks) * float64(cfg.Rows) * float64(cfg.RowBits)
	b := math.Log(cfg.Rate150k*totalBits) / math.Log(150_000/cfg.HCFirst)
	if b < 1.2 {
		b = 1.2
	}
	if b > 6 {
		b = 6
	}
	return b
}
