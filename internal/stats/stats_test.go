package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("stddev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty slices should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	// Property: quantiles are monotone in q and bounded by min/max.
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1, _ := Quantile(xs, 0.25)
		q2, _ := Quantile(xs, 0.5)
		q3, _ := Quantile(xs, 0.75)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return lo <= q1 && q1 <= q2 && q2 <= q3 && q3 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100} // 100 is an outlier
	b, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 9 || b.Min != 1 || b.Max != 100 {
		t.Errorf("summary: %+v", b)
	}
	if b.Median != 5 {
		t.Errorf("median = %v, want 5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi >= 100 {
		t.Errorf("whisker %v should exclude the outlier", b.WhiskerHi)
	}
	if _, err := NewBoxPlot(nil); err == nil {
		t.Error("empty box plot accepted")
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 || f.R2 < 0.999 {
		t.Errorf("fit = %+v", f)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single-point fit accepted")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x fit accepted")
	}
}

func TestFitLogLogPowerLaw(t *testing.T) {
	// y = 3 x^2.5 must fit with slope 2.5 in log-log space.
	var xs, ys []float64
	for x := 1.0; x <= 100; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, 2.5))
	}
	f, err := FitLogLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2.5) > 1e-9 {
		t.Errorf("log-log slope = %v, want 2.5", f.Slope)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	n := 100000
	sum := 0.0
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
		sum += x
		buckets[int(x*10)]++
	}
	if m := sum / float64(n); math.Abs(m-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", m)
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestRNGPoisson(t *testing.T) {
	r := NewRNG(9)
	for _, lambda := range []float64{0.5, 3, 50} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 0.1*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG(1)
	if r.Bernoulli(0) {
		t.Error("p=0 returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("p=1 returned false")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if hits < 2700 || hits > 3300 {
		t.Errorf("Bernoulli(0.3) hit %d/10000", hits)
	}
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(13)
	n := 50000
	sum, ss := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		ss += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(ss/float64(n) - mean*mean)
	if math.Abs(mean) > 0.02 || math.Abs(std-1) > 0.02 {
		t.Errorf("normal mean=%v std=%v", mean, std)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}
