// Package stats provides the small set of statistics used throughout the
// RowHammer reproduction: box-and-whisker summaries (Figure 8), means
// with deviations (Figures 6, 7 and 9), and least-squares fits in
// log-log space (Figure 5, Observation 4).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries that need at least one sample.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when xs has
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks, matching the convention used by the
// paper's box plots (median = Quantile(0.5)).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// BoxPlot summarizes a distribution the way Figure 8 draws it: quartiles,
// whiskers at 1.5×IQR, and outliers beyond the whiskers.
type BoxPlot struct {
	Min, Max       float64
	Q1, Median, Q3 float64
	WhiskerLo      float64 // smallest sample ≥ Q1 − 1.5·IQR
	WhiskerHi      float64 // largest sample ≤ Q3 + 1.5·IQR
	Outliers       []float64
	N              int
}

// IQR returns the inter-quartile range of the summary.
func (b BoxPlot) IQR() float64 { return b.Q3 - b.Q1 }

// NewBoxPlot computes a box-and-whisker summary of xs.
func NewBoxPlot(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var b BoxPlot
	b.N = len(s)
	b.Min = s[0]
	b.Max = s[len(s)-1]
	var err error
	if b.Q1, err = Quantile(s, 0.25); err != nil {
		return BoxPlot{}, err
	}
	if b.Median, err = Quantile(s, 0.5); err != nil {
		return BoxPlot{}, err
	}
	if b.Q3, err = Quantile(s, 0.75); err != nil {
		return BoxPlot{}, err
	}
	loFence := b.Q1 - 1.5*b.IQR()
	hiFence := b.Q3 + 1.5*b.IQR()
	b.WhiskerLo = b.Max // shrink downward
	b.WhiskerHi = b.Min // grow upward
	for _, x := range s {
		if x >= loFence && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hiFence && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b, nil
}

// LinearFit is a least-squares line y = Slope·x + Intercept with the
// coefficient of determination R2.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits a least-squares line through the points (xs[i], ys[i]).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched point slices")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	f := LinearFit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// FitLogLog fits a line in log10-log10 space, used to verify Observation 4
// (the log of the flip count is linear in the log of the hammer count).
// Points with non-positive coordinates are skipped.
func FitLogLog(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched point slices")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log10(xs[i]))
			ly = append(ly, math.Log10(ys[i]))
		}
	}
	return FitLine(lx, ly)
}
