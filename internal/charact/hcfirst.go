package charact

import "math"

// The first-flip search of Section 5.1: hammer counts from 2k to 150k
// (clamped to the 32 ms bound), refined until the bracket is within 2%,
// with two sweeps per hammer count before it is declared flip-free —
// flips near the threshold are probabilistic, so one sweep is noisy.
const (
	hcFirstMin       = 2_000
	hcFirstMax       = 150_000
	hcFirstPrecision = 0.02
	hcFirstProbes    = 2
)

// MeasureHCFirst finds the chip's HCfirst — the minimum hammer count that
// induces the first bit flip (Section 5.5) — under the currently written
// pattern, sampling victim rows at the stride (1 = every row). It
// ladders the hammer count geometrically until a flip appears and then
// bisects the bracket. found is false when the chip shows no flips
// within the sweep bound, i.e. the chip is not RowHammerable (Table 2).
func (t *Tester) MeasureHCFirst(stride int) (hcFirst int, found bool, err error) {
	maxHC := min(hcFirstMax, t.MaxHC)

	probe := func(hc int) (bool, error) {
		for i := 0; i < hcFirstProbes; i++ {
			any, err := t.AnyFlip(hc, stride)
			if err != nil || any {
				return any, err
			}
		}
		return false, nil
	}

	// Geometric ladder: ×1.4 steps from hcFirstMin to maxHC.
	lo, hi := 0, -1
	hc := hcFirstMin
	for {
		any, err := probe(hc)
		if err != nil {
			return 0, false, err
		}
		if any {
			hi = hc
			break
		}
		lo = hc
		if hc >= maxHC {
			return 0, false, nil
		}
		hc = int(math.Ceil(float64(hc) * 1.4))
		if hc > maxHC {
			hc = maxHC
		}
	}
	if lo == 0 {
		lo = hcFirstMin / 2 // first probe already flipped
	}

	// Bisect [lo, hi]: lo never flipped, hi did.
	for float64(hi-lo) > hcFirstPrecision*float64(hi) && hi-lo > 64 {
		mid := (lo + hi) / 2
		any, err := probe(mid)
		if err != nil {
			return 0, false, err
		}
		if any {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
