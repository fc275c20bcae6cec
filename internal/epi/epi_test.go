package epi

import (
	"math"
	"testing"

	"osprey/internal/rng"
	"osprey/internal/stats"
)

func TestDiscretizedGammaIsPMF(t *testing.T) {
	w := DiscretizedGamma(5.2, 1.7, 14)
	if w[0] != 0 {
		t.Fatal("same-day transmission weight must be zero")
	}
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			t.Fatal("negative pmf entry")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v", sum)
	}
	// Mass should peak near the mean.
	peak := 0
	for s := 1; s < len(w); s++ {
		if w[s] > w[peak] {
			peak = s
		}
	}
	if peak < 4 || peak > 7 {
		t.Fatalf("generation interval peak at day %d, want near 5", peak)
	}
}

func TestInfectiousnessConvolution(t *testing.T) {
	inc := []float64{10, 0, 0, 0}
	w := []float64{0, 0.5, 0.3, 0.2}
	lam := Infectiousness(inc, w)
	want := []float64{0, 5, 3, 2}
	for i := range want {
		if math.Abs(lam[i]-want[i]) > 1e-12 {
			t.Fatalf("lambda[%d] = %v, want %v", i, lam[i], want[i])
		}
	}
}

func TestRenewalDeterministicGrowth(t *testing.T) {
	// Constant R > 1 must grow; constant R < 1 must shrink.
	w := DiscretizedGamma(5, 2, 14)
	days := 80
	seed := []float64{50, 50, 50, 50, 50}
	grow := make([]float64, days)
	shrink := make([]float64, days)
	for i := range grow {
		grow[i], shrink[i] = 1.5, 0.7
	}
	incG := RenewalSimulate(grow, seed, w, nil)
	incS := RenewalSimulate(shrink, seed, w, nil)
	if incG[days-1] <= incG[20] {
		t.Fatal("R=1.5 did not grow")
	}
	if incS[days-1] >= incS[20] {
		t.Fatal("R=0.7 did not shrink")
	}
}

func TestRenewalStochasticMatchesMean(t *testing.T) {
	w := DiscretizedGamma(5, 2, 14)
	days := 60
	rt := make([]float64, days)
	for i := range rt {
		rt[i] = 1.2
	}
	seed := []float64{100, 100, 100}
	det := RenewalSimulate(rt, seed, w, nil)
	// Average many stochastic runs; should track the deterministic path.
	nRep := 200
	avg := make([]float64, days)
	root := rng.New(42)
	for rep := 0; rep < nRep; rep++ {
		inc := RenewalSimulate(rt, seed, w, root.Split("rep").Split(string(rune(rep))))
		for i, v := range inc {
			avg[i] += v / float64(nRep)
		}
	}
	rel := math.Abs(avg[days-1]-det[days-1]) / det[days-1]
	if rel > 0.1 {
		t.Fatalf("stochastic mean deviates %v from deterministic", rel)
	}
}

func TestCoriRecoversConstantR(t *testing.T) {
	w := DiscretizedGamma(5, 2, 14)
	days := 100
	rt := make([]float64, days)
	for i := range rt {
		rt[i] = 1.3
	}
	seed := []float64{200, 200, 200, 200, 200}
	inc := RenewalSimulate(rt, seed, w, nil)
	res, err := CoriEstimate(inc, w, 7, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// After burn-in the estimate should sit on the truth.
	for d := 40; d < days; d++ {
		if math.Abs(res.Mean[d]-1.3) > 0.05 {
			t.Fatalf("Cori mean at day %d = %v, want 1.3", d, res.Mean[d])
		}
		if res.Lower[d] > 1.3 || res.Upper[d] < 1.3 {
			t.Fatalf("Cori 95%% CI at day %d (%v,%v) excludes truth", d, res.Lower[d], res.Upper[d])
		}
		if res.Lower[d] >= res.Upper[d] {
			t.Fatal("CI bounds out of order")
		}
	}
}

func TestCoriTracksStepChange(t *testing.T) {
	w := DiscretizedGamma(5, 2, 14)
	days := 140
	rt := make([]float64, days)
	for i := range rt {
		if i < 70 {
			rt[i] = 1.5
		} else {
			rt[i] = 0.8
		}
	}
	seed := []float64{100, 100, 100}
	inc := RenewalSimulate(rt, seed, w, nil)
	res, err := CoriEstimate(inc, w, 7, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean[60] < 1.3 {
		t.Fatalf("pre-change estimate %v too low", res.Mean[60])
	}
	if res.Mean[120] > 0.95 {
		t.Fatalf("post-change estimate %v too high", res.Mean[120])
	}
}

func TestCoriEarlyDaysNaN(t *testing.T) {
	w := DiscretizedGamma(5, 2, 10)
	inc := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	res, err := CoriEstimate(inc, w, 7, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 7; d++ {
		if !math.IsNaN(res.Mean[d]) {
			t.Fatalf("day %d before window fill should be NaN", d)
		}
	}
}

func TestCoriValidation(t *testing.T) {
	w := DiscretizedGamma(5, 2, 10)
	if _, err := CoriEstimate([]float64{1}, w, 0, 1, 0.2); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := CoriEstimate([]float64{1}, w, 7, 0, 0.2); err == nil {
		t.Fatal("zero prior shape accepted")
	}
}

// seirIncidence integrates the deterministic SEIR ODE (RK4, four substeps
// a day; R is left implicit) over a population of n from s0 susceptible
// and i0 infectious, and returns each day's susceptible count and S->E
// incidence. It is the
// mechanistic reference the renewal model is checked against.
func seirIncidence(beta, sigma, gamma, n, s0, i0 float64, days int) (sus, inc []float64) {
	sus = make([]float64, days+1)
	inc = make([]float64, days+1)
	s, e, i := s0, 0.0, i0
	sus[0] = s
	deriv := func(s, e, i float64) (dS, dE, dI float64) {
		inf := beta * s * i / n
		return -inf, inf - sigma*e, sigma*e - gamma*i
	}
	const sub = 4
	h := 1.0 / sub
	for d := 1; d <= days; d++ {
		newInf := 0.0
		for k := 0; k < sub; k++ {
			s1S, s1E, s1I := deriv(s, e, i)
			s2S, s2E, s2I := deriv(s+h/2*s1S, e+h/2*s1E, i+h/2*s1I)
			s3S, s3E, s3I := deriv(s+h/2*s2S, e+h/2*s2E, i+h/2*s2I)
			s4S, s4E, s4I := deriv(s+h*s3S, e+h*s3E, i+h*s3I)
			dS := h / 6 * (s1S + 2*s2S + 2*s3S + s4S)
			s += dS
			e += h / 6 * (s1E + 2*s2E + 2*s3E + s4E)
			i += h / 6 * (s1I + 2*s2I + 2*s3I + s4I)
			newInf += -dS
		}
		sus[d], inc[d] = s, newInf
	}
	return sus, inc
}

func TestRenewalVsSEIRIncidenceCorrelation(t *testing.T) {
	// A renewal process with R(t) = R0 * S(t)/N from the SEIR run should
	// produce an incidence curve correlated with the SEIR incidence.
	const beta, sigma, gamma, n = 0.4, 1.0 / 3, 1.0 / 5, 1e6
	sus, seirInc := seirIncidence(beta, sigma, gamma, n, n-200, 200, 150)
	rt := make([]float64, len(sus))
	for d, s := range sus {
		rt[d] = beta / gamma * s / n
	}
	w := DiscretizedGamma(8, 3, 20) // SEIR generation time ~ 1/sigma + 1/gamma
	renewal := RenewalSimulate(rt, seirInc[:5], w, nil)
	c := stats.Correlation(renewal[10:], seirInc[10:])
	if c < 0.9 {
		t.Fatalf("renewal and SEIR incidence correlation %v < 0.9", c)
	}
}

func BenchmarkRenewalSimulate(b *testing.B) {
	w := DiscretizedGamma(5, 2, 14)
	rt := make([]float64, 365)
	for i := range rt {
		rt[i] = 1.1
	}
	seed := []float64{100, 100, 100}
	for i := 0; i < b.N; i++ {
		RenewalSimulate(rt, seed, w, nil)
	}
}

func BenchmarkCoriEstimate(b *testing.B) {
	w := DiscretizedGamma(5, 2, 14)
	rt := make([]float64, 365)
	for i := range rt {
		rt[i] = 1.1
	}
	inc := RenewalSimulate(rt, []float64{100, 100, 100}, w, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoriEstimate(inc, w, 7, 1, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}
