package charact

import (
	"fmt"
	"sort"

	"repro/internal/faultmodel"
)

// CoverageResult reports, for one chip, what fraction of all observable
// flips each data pattern identifies (Figure 4) and the flip count each
// pattern produced (used for Table 3's worst-case pattern).
type CoverageResult struct {
	HC         int
	Iterations int
	Total      int // size of the union of flips over all patterns
	Coverage   map[faultmodel.Pattern]float64
	FlipCount  map[faultmodel.Pattern]int
}

// WorstPattern returns the pattern with the highest flip count, i.e. the
// chip's worst-case data pattern, and false if no pattern flipped anything.
func (r *CoverageResult) WorstPattern() (faultmodel.Pattern, bool) {
	best, found := faultmodel.Pattern(0), false
	for _, p := range faultmodel.FigurePatterns() {
		if !found || r.FlipCount[p] > r.FlipCount[best] {
			if r.FlipCount[p] > 0 {
				best, found = p, true
			}
		}
	}
	return best, found
}

// MeasureCoverage runs the Section 5.2 data-pattern study on one chip:
// for each of the six Figure 4 patterns, iterations full-chip sweeps at
// the given HC; flips are aggregated per pattern and against the union.
func (t *Tester) MeasureCoverage(hc, iterations, stride int) (*CoverageResult, error) {
	if iterations < 1 {
		iterations = 1
	}
	res := &CoverageResult{
		HC:         hc,
		Iterations: iterations,
		Coverage:   make(map[faultmodel.Pattern]float64),
		FlipCount:  make(map[faultmodel.Pattern]int),
	}
	union := make(map[faultmodel.Flip]bool)
	perPattern := make(map[faultmodel.Pattern]map[faultmodel.Flip]bool)
	for _, p := range faultmodel.FigurePatterns() {
		t.WritePattern(p)
		set := make(map[faultmodel.Flip]bool)
		for it := 0; it < iterations; it++ {
			sw, err := t.Sweep(hc, stride)
			if err != nil {
				return nil, err
			}
			//rhlint:allow mapiter(builds membership sets; only len() is read)
			for f := range sw.Flips {
				set[f] = true
				union[f] = true
			}
		}
		perPattern[p] = set
	}
	res.Total = len(union)
	//rhlint:allow mapiter(independent per-key writes into result maps)
	for p, set := range perPattern {
		res.FlipCount[p] = len(set)
		if res.Total > 0 {
			res.Coverage[p] = float64(len(set)) / float64(res.Total)
		}
	}
	return res, nil
}

// SpatialProfile is Figure 6 for one chip: the fraction of observed flips
// at each row offset from the victim, measured at a hammer count chosen
// to hit the target flip rate.
type SpatialProfile struct {
	HC       int
	Fraction map[int]float64 // victim-relative row offset → fraction
	Total    int
}

// HCForRate estimates the hammer count at which a full sweep yields
// approximately the target bit flip rate, by laddering sweeps. The paper
// normalizes Figures 6 and 7 to a rate of 1e-6 this way (Section 5.4).
func (t *Tester) HCForRate(target float64, stride int) (int, error) {
	hc := 10_000
	maxHC := t.MaxHC
	if maxHC > 150_000 {
		maxHC = 150_000
	}
	var last *SweepResult
	for {
		sw, err := t.Sweep(hc, stride)
		if err != nil {
			return 0, err
		}
		last = sw
		if sw.Rate() >= target || hc >= maxHC {
			break
		}
		hc = int(float64(hc) * 1.5)
		if hc > maxHC {
			hc = maxHC
		}
	}
	if last.Rate() > 4*target && hc > 10_000 {
		// Overshot: back off one notch for a closer match.
		return int(float64(hc) / 1.5), nil
	}
	return hc, nil
}

// MeasureSpatial sweeps the chip at the given HC and attributes flips to
// their victim-relative row offset (Figure 6).
func (t *Tester) MeasureSpatial(hc, stride int) (*SpatialProfile, error) {
	sw, err := t.Sweep(hc, stride)
	if err != nil {
		return nil, err
	}
	p := &SpatialProfile{HC: hc, Fraction: make(map[int]float64)}
	//rhlint:allow mapiter(commutative integer sum)
	for _, n := range sw.FlipsByDist {
		p.Total += n
	}
	if p.Total == 0 {
		return p, nil
	}
	//rhlint:allow mapiter(independent per-key writes into result map)
	for off, n := range sw.FlipsByDist {
		p.Fraction[off] = float64(n) / float64(p.Total)
	}
	return p, nil
}

// WordDensity is Figure 7 for one chip: among 64-bit words containing at
// least one flip, the fraction containing exactly k flips.
type WordDensity struct {
	HC       int
	Fraction [6]float64 // index k = words with exactly k flips (k=1..5); [0] unused
	Words    int
}

// MeasureWordDensity sweeps at the given HC and counts flips per 64-bit
// word.
func (t *Tester) MeasureWordDensity(hc, stride int) (*WordDensity, error) {
	sw, err := t.Sweep(hc, stride)
	if err != nil {
		return nil, err
	}
	type wordKey struct{ bank, row, word int }
	words := make(map[wordKey]int)
	//rhlint:allow mapiter(commutative counting into a map)
	for f := range sw.Flips {
		words[wordKey{f.Bank, f.Row, f.Bit / 64}]++
	}
	d := &WordDensity{HC: hc, Words: len(words)}
	if len(words) == 0 {
		return d, nil
	}
	//rhlint:allow mapiter(every bucket sums identical addends; order cannot change rounding)
	for _, n := range words {
		if n > 5 {
			n = 5
		}
		d.Fraction[n] += 1 / float64(len(words))
	}
	return d, nil
}

// ECCWordAnalysis is Figure 9 for one chip: the minimum hammer count at
// which some 64-bit word contains 1, 2 and 3 flips (HCfirst, HCsecond,
// HCthird at ECC-word granularity) and the resulting multipliers, i.e.
// the protection factor of single- and double-error-correcting codes.
type ECCWordAnalysis struct {
	HC    [4]float64 // index k: min HC for a word with ≥k flips; [0] unused
	Found [4]bool
}

// Multiplier returns HC[k+1]/HC[k] (the Figure 9 red boxes) when both
// are defined.
func (a *ECCWordAnalysis) Multiplier(k int) (float64, bool) {
	if k < 1 || k > 2 || !a.Found[k] || !a.Found[k+1] || a.HC[k] == 0 {
		return 0, false
	}
	return a.HC[k+1] / a.HC[k], true
}

// AnalyzeECCWords computes the per-word hammer counts analytically from
// the chip's vulnerable-cell thresholds under its current pattern: the
// k-th flip of a word appears when HC reaches the word's k-th smallest
// effective threshold. (A sweep-based measurement converges to the same
// values but needs thousands of sweeps; see DESIGN.md §5.)
func (t *Tester) AnalyzeECCWords() *ECCWordAnalysis {
	a := &ECCWordAnalysis{}
	for k := 1; k <= 3; k++ {
		ts := t.chip.WordThresholds(t.chip.Pattern(), k)
		if len(ts) > 0 {
			a.HC[k] = ts[0]
			a.Found[k] = true
		}
	}
	return a
}

// MonotonicityResult is Table 5 for one chip: of all cells that flipped
// at least once across the HC sweep, the percentage whose empirical flip
// probability (out of Iterations trials) never decreases as HC grows.
type MonotonicityResult struct {
	HCs        []int
	Iterations int
	Cells      int
	Monotonic  int
}

// Percent returns the monotonic share in percent.
func (m *MonotonicityResult) Percent() float64 {
	if m.Cells == 0 {
		return 0
	}
	return 100 * float64(m.Monotonic) / float64(m.Cells)
}

// MeasureMonotonicity runs the Section 5.6 experiment: sweep HC over the
// given ladder, hammering Sweep's victims iterations times per HC, and
// test each flipping cell's empirical flip-probability sequence for
// monotonic non-decrease.
func (t *Tester) MeasureMonotonicity(hcs []int, iterations, stride int) (*MonotonicityResult, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("charact: monotonicity needs at least one iteration, got %d", iterations)
	}
	if len(hcs) == 0 {
		hcs = DefaultMonotonicityHCs()
	}
	sort.Ints(hcs)
	counts := make(map[faultmodel.Flip][]int)
	for hi, hc := range hcs {
		for it := 0; it < iterations; it++ {
			for v := 0; v < t.chip.Rows(); v += max(stride, 1) {
				below, above, ok := t.chip.AggressorsFor(v)
				if !ok {
					continue
				}
				flips, err := t.hammerDoubleSided(v, hc, below, above, true)
				if err != nil {
					return nil, err
				}
				for _, f := range flips {
					seq, ok := counts[f]
					if !ok {
						seq = make([]int, len(hcs))
						counts[f] = seq
					}
					seq[hi]++
				}
			}
		}
	}
	res := &MonotonicityResult{HCs: hcs, Iterations: iterations, Cells: len(counts)}
	//rhlint:allow mapiter(commutative count of monotonic sequences)
	for _, seq := range counts {
		mono := true
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				mono = false
				break
			}
		}
		if mono {
			res.Monotonic++
		}
	}
	return res, nil
}

// DefaultMonotonicityHCs is the paper's 25k–150k ladder with 5k steps,
// thinned to keep runtimes reasonable (every other step).
func DefaultMonotonicityHCs() []int {
	var hcs []int
	for hc := 25_000; hc <= 150_000; hc += 10_000 {
		hcs = append(hcs, hc)
	}
	return hcs
}

// RateCurve measures the Figure 5 series for one chip: flip rate at each
// hammer count of the ladder.
func (t *Tester) RateCurve(hcs []int, stride int) (map[int]float64, error) {
	out := make(map[int]float64, len(hcs))
	for _, hc := range hcs {
		sw, err := t.Sweep(hc, stride)
		if err != nil {
			return nil, err
		}
		out[hc] = sw.Rate()
	}
	return out, nil
}

// DefaultRateHCs is the Figure 5 hammer-count ladder (10k–150k,
// logarithmic).
func DefaultRateHCs() []int {
	var hcs []int
	hc := 10_000.0
	for hc <= 150_000 {
		hcs = append(hcs, int(hc))
		hc *= 1.6
	}
	if hcs[len(hcs)-1] != 150_000 {
		hcs = append(hcs, 150_000)
	}
	return hcs
}
