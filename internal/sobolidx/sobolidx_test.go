package sobolidx

import (
	"math"
	"testing"

	"osprey/internal/rng"
)

// ishigami on the unit cube (inputs scaled to (-pi, pi)), the classic GSA
// benchmark with known analytic indices.
func ishigami(x []float64) float64 {
	const a, b = 7.0, 0.1
	x1 := -math.Pi + 2*math.Pi*x[0]
	x2 := -math.Pi + 2*math.Pi*x[1]
	x3 := -math.Pi + 2*math.Pi*x[2]
	return math.Sin(x1) + a*math.Sin(x2)*math.Sin(x2) + b*math.Pow(x3, 4)*math.Sin(x1)
}

func ishigamiTruth() (s []float64, st []float64, variance float64) {
	const a, b = 7.0, 0.1
	pi4 := math.Pow(math.Pi, 4)
	pi8 := pi4 * pi4
	v1 := 0.5 * math.Pow(1+b*pi4/5, 2)
	v2 := a * a / 8
	v13 := b * b * pi8 * (1.0/18 - 1.0/50)
	v := v1 + v2 + v13
	return []float64{v1 / v, v2 / v, 0},
		[]float64{(v1 + v13) / v, v2 / v, v13 / v}, v
}

func TestIshigamiQMC(t *testing.T) {
	res, err := Estimate(ishigami, 3, Options{N: 8192})
	if err != nil {
		t.Fatal(err)
	}
	s, st, v := ishigamiTruth()
	for i := range s {
		if math.Abs(res.First[i]-s[i]) > 0.02 {
			t.Fatalf("S_%d = %v, want %v", i, res.First[i], s[i])
		}
		if math.Abs(res.Total[i]-st[i]) > 0.02 {
			t.Fatalf("ST_%d = %v, want %v", i, res.Total[i], st[i])
		}
	}
	if math.Abs(res.Variance-v)/v > 0.02 {
		t.Fatalf("variance = %v, want %v", res.Variance, v)
	}
}

func TestIshigamiPseudoRandom(t *testing.T) {
	res, err := Estimate(ishigami, 3, Options{N: 20000, Rand: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := ishigamiTruth()
	for i := range s {
		if math.Abs(res.First[i]-s[i]) > 0.05 {
			t.Fatalf("MC S_%d = %v, want %v", i, res.First[i], s[i])
		}
	}
}

func TestAdditiveIndicesSumToOne(t *testing.T) {
	f := func(x []float64) float64 { return x[0] + 2*x[1] + 3*x[2] + 4*x[3] }
	res, err := Estimate(f, 4, Options{N: 4096, Clamp01: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.First {
		sum += v
	}
	if math.Abs(sum-1) > 0.02 {
		t.Fatalf("additive first-order indices sum to %v, want 1", sum)
	}
	want := []float64{1, 4, 9, 16}
	denom := 30.0
	for i := range want {
		if math.Abs(res.First[i]-want[i]/denom) > 0.02 {
			t.Fatalf("S_%d = %v, want %v", i, res.First[i], want[i]/denom)
		}
		// In an additive model total equals first-order.
		if math.Abs(res.Total[i]-res.First[i]) > 0.02 {
			t.Fatalf("ST_%d = %v differs from S_%d = %v in additive model", i, res.Total[i], i, res.First[i])
		}
	}
}

func TestInertInputHasZeroIndices(t *testing.T) {
	f := func(x []float64) float64 { return math.Exp(x[0]) } // x[1] unused
	res, err := Estimate(f, 2, Options{N: 4096, Clamp01: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.First[1] > 0.01 || res.Total[1] > 0.01 {
		t.Fatalf("inert input has indices S=%v ST=%v", res.First[1], res.Total[1])
	}
	if res.First[0] < 0.97 {
		t.Fatalf("active input S = %v, want ~1", res.First[0])
	}
}

func TestConstantFunction(t *testing.T) {
	res, err := Estimate(func(x []float64) float64 { return 42 }, 3, Options{N: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variance != 0 {
		t.Fatalf("constant function variance = %v", res.Variance)
	}
	for i, v := range res.First {
		if v != 0 || res.Total[i] != 0 {
			t.Fatal("constant function should have zero indices")
		}
	}
	if math.Abs(res.Mean-42) > 1e-12 {
		t.Fatalf("mean = %v", res.Mean)
	}
}

func TestTotalAtLeastFirst(t *testing.T) {
	// For any model, ST_i >= S_i (up to MC noise).
	f := func(x []float64) float64 {
		return x[0] + x[1]*x[2] + math.Sin(3*x[0]*x[3])
	}
	res, err := Estimate(f, 4, Options{N: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.First {
		if res.Total[i] < res.First[i]-0.02 {
			t.Fatalf("ST_%d=%v < S_%d=%v", i, res.Total[i], i, res.First[i])
		}
	}
}

func TestDimensionValidation(t *testing.T) {
	if _, err := Estimate(ishigami, 0, Options{}); err == nil {
		t.Fatal("d=0 accepted")
	}
	// 2d > 16 requires a pseudo-random stream.
	f := func(x []float64) float64 { return x[0] }
	if _, err := Estimate(f, 9, Options{N: 64}); err == nil {
		t.Fatal("9-dim QMC should be rejected")
	}
	if _, err := Estimate(f, 9, Options{N: 64, Rand: rng.New(1)}); err != nil {
		t.Fatalf("9-dim MC rejected: %v", err)
	}
}

func BenchmarkEstimateIshigami(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(ishigami, 3, Options{N: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}
