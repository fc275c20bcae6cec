package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split("flow").Split("task/3")
	b := New(7).Split("flow").Split("task/3")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical split paths diverged")
		}
	}
}

func TestSplitIndependentOfParentDraws(t *testing.T) {
	p1 := New(9)
	c1 := p1.Split("x")
	p2 := New(9)
	p2.Uint64() // advancing the parent must not change the child
	c2 := p2.Split("x")
	// Split is defined on parent *state*; since p2 advanced, c2 differs.
	// What must hold: splitting twice from the same state with different
	// labels yields different streams, and the parent sequence is
	// unaffected by splitting.
	q1 := New(9)
	_ = q1.Split("anything")
	q2 := New(9)
	for i := 0; i < 50; i++ {
		if q1.Uint64() != q2.Uint64() {
			t.Fatal("splitting perturbed the parent sequence")
		}
	}
	_ = c1
	_ = c2
}

func TestSplitLabelsDiffer(t *testing.T) {
	root := New(3)
	a := root.Split("a")
	b := root.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits look correlated: %d/100 equal draws", same)
	}
}

func TestSplitN(t *testing.T) {
	streams := New(1).SplitN("rep", 10)
	if len(streams) != 10 {
		t.Fatalf("want 10 streams, got %d", len(streams))
	}
	seen := map[uint64]bool{}
	for _, s := range streams {
		v := s.Uint64()
		if seen[v] {
			t.Fatal("two replicate streams started identically")
		}
		seen[v] = true
	}
}

func TestLabel(t *testing.T) {
	s := New(5).Split("flow").Split("task")
	want := "root(5)/flow/task"
	if s.Label() != want {
		t.Fatalf("label = %q, want %q", s.Label(), want)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	counts := make([]int, 7)
	n := 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-float64(n)/7) > 500 {
			t.Fatalf("Intn(7) biased: bucket %d has %d of %d", k, c, n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(14)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func momentTest(t *testing.T, name string, draw func() float64, wantMean, wantVar, tol float64) {
	t.Helper()
	n := 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-wantMean) > tol*math.Max(1, math.Abs(wantMean)) {
		t.Errorf("%s: mean %v, want %v", name, mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 3*tol*math.Max(1, wantVar) {
		t.Errorf("%s: var %v, want %v", name, variance, wantVar)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(21)
	momentTest(t, "Normal", r.Normal, 0, 1, 0.02)
}

func TestLogNormalMoments(t *testing.T) {
	r := New(23)
	mu, sigma := 0.5, 0.4
	wantMean := math.Exp(mu + sigma*sigma/2)
	wantVar := (math.Exp(sigma*sigma) - 1) * math.Exp(2*mu+sigma*sigma)
	momentTest(t, "LogNormal", func() float64 { return r.LogNormal(mu, sigma) }, wantMean, wantVar, 0.03)
}

func TestExponentialMoments(t *testing.T) {
	r := New(24)
	momentTest(t, "Exponential", func() float64 { return r.Exponential(2) }, 0.5, 0.25, 0.03)
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, rate float64 }{{0.5, 1}, {1, 2}, {2.5, 0.5}, {20, 4}}
	for _, c := range cases {
		r := New(25)
		momentTest(t, "Gamma", func() float64 { return r.Gamma(c.shape, c.rate) },
			c.shape/c.rate, c.shape/(c.rate*c.rate), 0.04)
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(26)
	a, b := 2.0, 5.0
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	momentTest(t, "Beta", func() float64 { return r.Beta(a, b) }, wantMean, wantVar, 0.03)
}

func TestBinomialSmallMoments(t *testing.T) {
	r := New(27)
	n, p := 20, 0.3
	momentTest(t, "BinomialSmall", func() float64 { return float64(r.Binomial(n, p)) },
		float64(n)*p, float64(n)*p*(1-p), 0.03)
}

func TestBinomialLargeMoments(t *testing.T) {
	r := New(28)
	n, p := 50000, 0.013
	momentTest(t, "BinomialLarge", func() float64 { return float64(r.Binomial(n, p)) },
		float64(n)*p, float64(n)*p*(1-p), 0.03)
}

func TestBinomialEdges(t *testing.T) {
	r := New(29)
	if v := r.Binomial(100, 0); v != 0 {
		t.Fatalf("Binomial(n,0) = %d", v)
	}
	if v := r.Binomial(100, 1); v != 100 {
		t.Fatalf("Binomial(n,1) = %d", v)
	}
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0,p) = %d", v)
	}
}

func TestBinomialInRangeProperty(t *testing.T) {
	r := New(30)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 20000)
		p := float64(pRaw) / 65535.0
		v := r.Binomial(n, p)
		return v >= 0 && v <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonSmallMoments(t *testing.T) {
	r := New(31)
	momentTest(t, "PoissonSmall", func() float64 { return float64(r.Poisson(3.7)) }, 3.7, 3.7, 0.03)
}

func TestPoissonLargeMoments(t *testing.T) {
	r := New(32)
	momentTest(t, "PoissonLarge", func() float64 { return float64(r.Poisson(480)) }, 480, 480, 0.03)
}

func TestPoissonZero(t *testing.T) {
	if v := New(1).Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
}

func TestNegBinomialMoments(t *testing.T) {
	r := New(33)
	size, prob := 5.0, 0.4
	wantMean := size * (1 - prob) / prob
	wantVar := size * (1 - prob) / (prob * prob)
	momentTest(t, "NegBinomial", func() float64 { return float64(r.NegBinomial(size, prob)) },
		wantMean, wantVar, 0.04)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(34)
	alpha := []float64{1, 2, 3, 0.5}
	out := make([]float64, 4)
	for i := 0; i < 1000; i++ {
		r.Dirichlet(alpha, out)
		sum := 0.0
		for _, v := range out {
			if v < 0 {
				t.Fatal("negative Dirichlet component")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Dirichlet sums to %v", sum)
		}
	}
}

func TestMultinomialConservation(t *testing.T) {
	r := New(35)
	w := []float64{0.1, 0.4, 0.2, 0.3}
	for i := 0; i < 500; i++ {
		n := r.Intn(1000)
		counts := r.Multinomial(n, w)
		total := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatal("negative multinomial count")
			}
			total += c
		}
		if total != n {
			t.Fatalf("multinomial total %d != n %d", total, n)
		}
	}
}

func TestMultinomialProportions(t *testing.T) {
	r := New(36)
	w := []float64{1, 3}
	counts := r.Multinomial(400000, w)
	frac := float64(counts[0]) / 400000
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("multinomial proportion %v, want 0.25", frac)
	}
}

func TestMultinomialZeroWeightGetsNothing(t *testing.T) {
	r := New(37)
	counts := r.Multinomial(1000, []float64{0, 1, 0})
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight categories received counts: %v", counts)
	}
	if counts[1] != 1000 {
		t.Fatalf("nonzero category got %d of 1000", counts[1])
	}
}

func TestGammaPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(-1, 1) did not panic")
		}
	}()
	New(1).Gamma(-1, 1)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(100000, 0.01)
	}
}

func BenchmarkGamma(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(2.5, 1.0)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := New(99)
	r.Normal() // populate the spare slot
	r.Uint64()
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Stream{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Label() != r.Label() {
		t.Fatal("label lost in round trip")
	}
	for i := 0; i < 200; i++ {
		if r.Uint64() != restored.Uint64() {
			t.Fatalf("restored stream diverged at draw %d", i)
		}
		if r.Normal() != restored.Normal() {
			t.Fatalf("restored normal stream diverged at draw %d", i)
		}
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	restored := &Stream{}
	if err := restored.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated state accepted")
	}
}
