package gp

import (
	"math"
	"testing"

	"osprey/internal/design"
	"osprey/internal/rng"
)

func sample1D(f func(float64) float64, xs []float64) ([][]float64, []float64) {
	x := make([][]float64, len(xs))
	y := make([]float64, len(xs))
	for i, v := range xs {
		x[i] = []float64{v}
		y[i] = f(v)
	}
	return x, y
}

func TestFitEmpty(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("Fit accepted empty data")
	}
}

func TestFitRaggedRejected(t *testing.T) {
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{0, 0}, Options{}); err == nil {
		t.Fatal("Fit accepted ragged inputs")
	}
}

func TestInterpolatesSmoothFunction(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	xs := make([]float64, 15)
	for i := range xs {
		xs[i] = float64(i) / 14
	}
	x, y := sample1D(f, xs)
	g, err := Fit(x, y, Options{Kernel: SquaredExponential, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []float64{0.13, 0.42, 0.77} {
		m, _ := g.Predict([]float64{tx})
		if math.Abs(m-f(tx)) > 0.05 {
			t.Fatalf("prediction at %v: %v, want %v", tx, m, f(tx))
		}
	}
}

func TestVarianceShrinksAtData(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, y := sample1D(f, []float64{0, 0.25, 0.5, 0.75, 1})
	g, err := Fit(x, y, Options{Kernel: Matern52})
	if err != nil {
		t.Fatal(err)
	}
	_, vAt := g.Predict([]float64{0.5})
	_, vBetween := g.Predict([]float64{0.6})
	if vAt > vBetween {
		t.Fatalf("variance at a training point (%v) exceeds variance away from data (%v)", vAt, vBetween)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	r := rng.New(1)
	x := design.LatinHypercube(r, 30, 3)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = p[0] + 2*p[1]*p[1] - p[2]
	}
	g, err := Fit(x, y, Options{Kernel: SquaredExponential})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		pt := []float64{r.Float64(), r.Float64(), r.Float64()}
		_, v := g.Predict(pt)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("negative or NaN predictive variance: %v", v)
		}
	}
}

func TestPredictNoisyAddsNugget(t *testing.T) {
	x, y := sample1D(func(x float64) float64 { return x }, []float64{0, 0.5, 1})
	g, err := Fit(x, y, Options{FixedNugget: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	_, v := g.Predict([]float64{0.25})
	_, vn := g.PredictNoisy([]float64{0.25})
	if vn <= v {
		t.Fatal("PredictNoisy should exceed latent variance")
	}
}

func TestRecoversAnisotropy(t *testing.T) {
	// Response depends strongly on x0 and not at all on x1; the fitted
	// lengthscale for x1 should be much larger.
	r := rng.New(2)
	x := design.LatinHypercube(r, 60, 2)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = math.Sin(4 * p[0])
	}
	g, err := Fit(x, y, Options{Kernel: SquaredExponential, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ls := g.Lengthscales()
	if ls[1] < 2*ls[0] {
		t.Fatalf("anisotropy not recovered: lengthscales %v", ls)
	}
}

func TestHandlesConstantTargets(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{3, 3, 3}
	g, err := Fit(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{0.25})
	if math.Abs(m-3) > 0.2 {
		t.Fatalf("constant function predicted as %v", m)
	}
}

func TestNoisyDataGetsNonTrivialNugget(t *testing.T) {
	r := rng.New(3)
	n := 80
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := r.Float64()
		x[i] = []float64{v}
		y[i] = math.Sin(2*math.Pi*v) + 0.3*r.Normal()
	}
	g, err := Fit(x, y, Options{Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// True noise variance is 0.09; the fitted nugget should be within an
	// order of magnitude rather than collapsing to interpolation.
	if g.Nugget() < 0.01 {
		t.Fatalf("nugget %v too small for noisy data", g.Nugget())
	}
}

func TestAddWithoutReoptimize(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(3 * x) }
	x, y := sample1D(f, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0})
	g, err := Fit(x, y, Options{Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Predict([]float64{0.5})
	if err := g.Add([]float64{0.5}, f(0.5), false); err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 {
		t.Fatalf("N = %d after Add", g.N())
	}
	after, vAfter := g.Predict([]float64{0.5})
	if math.Abs(after-f(0.5)) > math.Abs(before-f(0.5))+1e-9 {
		t.Fatal("adding an observation made the prediction there worse")
	}
	if vAfter > 1e-2 {
		t.Fatalf("variance at a new training point still large: %v", vAfter)
	}
}

func TestAddWithReoptimize(t *testing.T) {
	f := func(x float64) float64 { return x*x - x }
	x, y := sample1D(f, []float64{0, 0.3, 0.7, 1.0})
	g, err := Fit(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add([]float64{0.5}, f(0.5), true); err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{0.5})
	if math.Abs(m-f(0.5)) > 1e-3 {
		t.Fatalf("reoptimized GP mispredicts a training point: %v vs %v", m, f(0.5))
	}
}

func TestTrainingTargetsRoundTrip(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{5, -3}
	g, err := Fit(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := g.TrainingTargets()
	for i := range y {
		if math.Abs(got[i]-y[i]) > 1e-9 {
			t.Fatalf("targets round trip: %v vs %v", got, y)
		}
	}
}

func TestMatern52Interpolates(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 0.5) }
	xs := make([]float64, 21)
	for i := range xs {
		xs[i] = float64(i) / 20
	}
	x, y := sample1D(f, xs)
	g, err := Fit(x, y, Options{Kernel: Matern52, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{0.33})
	if math.Abs(m-f(0.33)) > 0.05 {
		t.Fatalf("Matern prediction %v, want %v", m, f(0.33))
	}
}

func TestKernelKindString(t *testing.T) {
	if SquaredExponential.String() != "squared-exponential" || Matern52.String() != "matern52" {
		t.Fatal("kernel names wrong")
	}
}

func BenchmarkFit50(b *testing.B) {
	r := rng.New(1)
	x := design.LatinHypercube(r, 50, 5)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = p[0] + p[1]*p[2] - math.Sin(p[3]) + p[4]*p[4]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	x := design.LatinHypercube(r, 100, 5)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = p[0] + p[1]
	}
	g, err := Fit(x, y, Options{MaxIter: 60})
	if err != nil {
		b.Fatal(err)
	}
	pt := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(pt)
	}
}

func TestRestorePredictsIdentically(t *testing.T) {
	r := rng.New(9)
	x := design.LatinHypercube(r, 40, 3)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = p[0]*p[1] + math.Cos(3*p[2])
	}
	g, err := Fit(x, y, Options{Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(x, y, g.Hyperparams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pt := []float64{r.Float64(), r.Float64(), r.Float64()}
		m1, v1 := g.Predict(pt)
		m2, v2 := restored.Predict(pt)
		if m1 != m2 || v1 != v2 {
			t.Fatalf("restored GP differs at %v: (%v,%v) vs (%v,%v)", pt, m1, v1, m2, v2)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	x := [][]float64{{0.1}, {0.9}}
	y := []float64{1, 2}
	if _, err := Restore(nil, nil, Hyperparams{}, Options{}); err == nil {
		t.Fatal("empty restore accepted")
	}
	if _, err := Restore(x, y, Hyperparams{Lengthscales: []float64{1, 2}}, Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := Restore(x, y, Hyperparams{Lengthscales: []float64{1}, YStd: 0, SignalVar: 1}, Options{}); err == nil {
		t.Fatal("invalid hyperparameters accepted")
	}
}

func TestPredictMeanMatchesPredict(t *testing.T) {
	r := rng.New(11)
	x := design.LatinHypercube(r, 30, 2)
	y := make([]float64, len(x))
	for i, p := range x {
		y[i] = p[0] + math.Sin(3*p[1])
	}
	g, err := Fit(x, y, Options{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pt := []float64{r.Float64(), r.Float64()}
		full, _ := g.Predict(pt)
		fast := g.PredictMean(pt)
		if math.Abs(full-fast) > 1e-10 {
			t.Fatalf("PredictMean %v != Predict %v at %v", fast, full, pt)
		}
	}
}
