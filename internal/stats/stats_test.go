package stats

import (
	"math"
	"testing"
	"testing/quick"

	"osprey/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if math.Abs(Variance(xs)-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if math.Abs(PopVariance(xs)-4) > 1e-12 {
		t.Fatalf("PopVariance = %v", PopVariance(xs))
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty inputs should yield NaN")
	}
	min, max := MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Fatal("MinMax of empty should be NaN")
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Quantile(xs, 0.5); got != 15 {
		t.Fatalf("Quantile interp = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilesMonotonic(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Normal()
		}
		qs := Quantiles(xs, 0.1, 0.5, 0.9)
		return qs[0] <= qs[1] && qs[1] <= qs[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestMedian(t *testing.T) {
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("Median odd wrong")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("Median even wrong")
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 3}, []float64{1, 3})
	if got != 2.5 {
		t.Fatalf("WeightedMean = %v", got)
	}
	// Equal weights reduce to the plain mean.
	xs := []float64{2, 4, 9}
	if math.Abs(WeightedMean(xs, []float64{2, 2, 2})-Mean(xs)) > 1e-12 {
		t.Fatal("equal-weight mean mismatch")
	}
	if !math.IsNaN(WeightedMean(xs, []float64{0, 0, 0})) {
		t.Fatal("zero-weight mean should be NaN")
	}
	if !math.IsNaN(WeightedMean(xs, []float64{1, -1, 1})) {
		t.Fatal("negative weight should yield NaN")
	}
}

func TestWeightedVariance(t *testing.T) {
	// Weight 2 on x is the same as repeating x twice (population variance).
	v1 := WeightedVariance([]float64{1, 5}, []float64{2, 2})
	v2 := PopVariance([]float64{1, 1, 5, 5})
	if math.Abs(v1-v2) > 1e-12 {
		t.Fatalf("weighted variance %v vs repeated %v", v1, v2)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if math.Abs(Correlation(xs, ys)-1) > 1e-12 {
		t.Fatal("perfect positive correlation expected")
	}
	neg := []float64{8, 6, 4, 2}
	if math.Abs(Correlation(xs, neg)+1) > 1e-12 {
		t.Fatal("perfect negative correlation expected")
	}
	if !math.IsNaN(Correlation(xs, []float64{1, 1, 1, 1})) {
		t.Fatal("constant series should give NaN correlation")
	}
}

func TestSummarize(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormalMS(10, 2)
	}
	s := Summarize(xs)
	if s.N != 10000 {
		t.Fatal("N wrong")
	}
	if math.Abs(s.Mean-10) > 0.1 || math.Abs(s.StdDev-2) > 0.1 {
		t.Fatalf("Summary moments off: %+v", s)
	}
	// 95% interval of N(10,2) is about (6.08, 13.92).
	if math.Abs(s.Q025-6.08) > 0.3 || math.Abs(s.Q975-13.92) > 0.3 {
		t.Fatalf("Summary quantiles off: %+v", s)
	}
	if s.Min > s.Q025 || s.Max < s.Q975 || s.Med > s.Q975 || s.Med < s.Q025 {
		t.Fatalf("Summary ordering violated: %+v", s)
	}
}

func TestECDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if ECDF(xs, 2.5) != 0.5 {
		t.Fatalf("ECDF = %v", ECDF(xs, 2.5))
	}
	if ECDF(xs, 0) != 0 || ECDF(xs, 5) != 1 {
		t.Fatal("ECDF tails wrong")
	}
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal()
	}
	if math.Abs(Autocorrelation(xs, 0)-1) > 1e-12 {
		t.Fatal("lag-0 autocorrelation must be 1")
	}
}

func TestEffectiveSampleSizeIID(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Normal()
	}
	ess := EffectiveSampleSize(xs)
	if ess < 3000 {
		t.Fatalf("ESS of iid noise too low: %v", ess)
	}
}

func TestEffectiveSampleSizeCorrelated(t *testing.T) {
	r := rng.New(5)
	// AR(1) with phi = 0.95 has ESS ≈ n (1-phi)/(1+phi) ≈ n/39.
	n := 5000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.95*xs[i-1] + r.Normal()
	}
	ess := EffectiveSampleSize(xs)
	if ess > float64(n)/10 {
		t.Fatalf("ESS of strongly correlated chain too high: %v", ess)
	}
}

func TestGelmanRubinConverged(t *testing.T) {
	r := rng.New(6)
	chains := make([][]float64, 4)
	for c := range chains {
		chains[c] = make([]float64, 2000)
		for i := range chains[c] {
			chains[c][i] = r.Normal()
		}
	}
	rh := GelmanRubin(chains)
	if math.Abs(rh-1) > 0.05 {
		t.Fatalf("R-hat of identical-distribution chains = %v", rh)
	}
}

func TestGelmanRubinDiverged(t *testing.T) {
	r := rng.New(7)
	chains := make([][]float64, 2)
	for c := range chains {
		chains[c] = make([]float64, 1000)
		for i := range chains[c] {
			chains[c][i] = r.Normal() + float64(c)*10 // separated modes
		}
	}
	if rh := GelmanRubin(chains); rh < 2 {
		t.Fatalf("R-hat should flag separated chains, got %v", rh)
	}
}

func TestGelmanRubinRequiresTwoChains(t *testing.T) {
	if !math.IsNaN(GelmanRubin([][]float64{{1, 2, 3}})) {
		t.Fatal("single chain should give NaN")
	}
}

func TestWeightedQuantileUnweightedMatchesOrder(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	ws := []float64{1, 1, 1, 1, 1}
	if got := WeightedQuantiles(xs, ws, 0.5)[0]; got != 3 {
		t.Fatalf("weighted median = %v, want 3", got)
	}
	if got := WeightedQuantiles(xs, ws, 0)[0]; got != 1 {
		t.Fatalf("q=0 gives %v, want 1", got)
	}
	if got := WeightedQuantiles(xs, ws, 1)[0]; got != 5 {
		t.Fatalf("q=1 gives %v, want 5", got)
	}
}

func TestWeightedQuantileRespectsWeights(t *testing.T) {
	// 90% of the mass at 10, 10% at 0: the median must be 10.
	xs := []float64{0, 10}
	ws := []float64{1, 9}
	if got := WeightedQuantiles(xs, ws, 0.5)[0]; got != 10 {
		t.Fatalf("weighted median = %v, want 10", got)
	}
	if got := WeightedQuantiles(xs, ws, 0.05)[0]; got != 0 {
		t.Fatalf("q=0.05 = %v, want 0", got)
	}
}

func TestWeightedQuantileDegenerate(t *testing.T) {
	if !math.IsNaN(WeightedQuantiles(nil, nil, 0.5)[0]) {
		t.Fatal("empty input should give NaN")
	}
	if !math.IsNaN(WeightedQuantiles([]float64{1}, []float64{0}, 0.5)[0]) {
		t.Fatal("zero total weight should give NaN")
	}
	if !math.IsNaN(WeightedQuantiles([]float64{1, 2}, []float64{1, -1}, 0.5)[0]) {
		t.Fatal("negative weight should give NaN")
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100} // outlier-heavy
	raw := MAD(xs, false)
	if raw != 1 {
		t.Fatalf("MAD = %v, want 1", raw)
	}
	if got := MAD(xs, true); math.Abs(got-1.4826) > 1e-12 {
		t.Fatalf("consistent MAD = %v", got)
	}
	if !math.IsNaN(MAD(nil, false)) {
		t.Fatal("empty MAD should be NaN")
	}
	// Robustness: the outlier barely moves MAD while it wrecks StdDev.
	if MAD(xs, true) > StdDev(xs)/5 {
		t.Fatal("MAD not robust relative to StdDev on outlier data")
	}
}
