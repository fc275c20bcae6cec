package rt

import (
	"math"
	"testing"

	"osprey/internal/rng"
	"osprey/internal/wastewater"
)

func TestCoriFromWastewaterRuns(t *testing.T) {
	days := 100
	s := genSeries(t, days, 21)
	res, err := CoriFromWastewater(s.Observations, days, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: estimates exist and are positive after the window fills.
	for d := 20; d < days; d++ {
		if math.IsNaN(res.Mean[d]) || res.Mean[d] <= 0 {
			t.Fatalf("Cori mean at day %d = %v", d, res.Mean[d])
		}
	}
}

func TestCoriFromWastewaterValidation(t *testing.T) {
	if _, err := CoriFromWastewater(nil, 50, 7); err == nil {
		t.Fatal("empty observations accepted")
	}
	obs := []wastewater.Observation{{Day: 60, Concentration: 1}, {Day: 61, Concentration: 1}, {Day: 62, Concentration: 1}}
	if _, err := CoriFromWastewater(obs, 50, 7); err == nil {
		t.Fatal("out-of-window observation accepted")
	}
}

func TestGoldsteinBeatsCoriOnNoisyWastewater(t *testing.T) {
	// The paper's rationale for the expensive estimator: on the noisy
	// wastewater signal, the mechanistic Bayesian model produces a more
	// accurate R(t) than the naive concentration-as-incidence baseline.
	days := 100
	s := genSeries(t, days, 22)
	gold, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(22))
	if err != nil {
		t.Fatal(err)
	}
	cori, err := CoriFromWastewater(s.Observations, days, 7)
	if err != nil {
		t.Fatal(err)
	}
	gMAE := gold.MeanAbsError(s.TrueRt, 20, days-7)
	cMAE := CoriMeanAbsError(cori, s.TrueRt, 20, days-7)
	t.Logf("Goldstein MAE %.3f vs Cori-on-wastewater MAE %.3f", gMAE, cMAE)
	if gMAE >= cMAE {
		t.Fatalf("Goldstein (%.3f) did not beat the naive baseline (%.3f)", gMAE, cMAE)
	}
}

func TestEstimateGoldsteinChains(t *testing.T) {
	days := 80
	s := genSeries(t, days, 23)
	ce, err := EstimateGoldsteinChains(s.Observations, s.Plant, days, fastOpts(23), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Chains != 3 {
		t.Fatalf("chains = %d", ce.Chains)
	}
	if len(ce.Draws) == 0 {
		t.Fatal("no pooled draws")
	}
	if len(ce.RHat) != days {
		t.Fatalf("RHat length %d", len(ce.RHat))
	}
	if ce.MaxRHat <= 0 {
		t.Fatal("MaxRHat not computed")
	}
	// Short chains may not fully converge, but R-hat should not explode
	// on this well-identified posterior.
	if ce.MaxRHat > 2 {
		t.Fatalf("chains badly diverged: max R-hat %v", ce.MaxRHat)
	}
	// Bands from the pooled draws are ordered.
	for d := 0; d < days; d++ {
		if !(ce.Lower[d] <= ce.Median[d] && ce.Median[d] <= ce.Upper[d]) {
			t.Fatalf("pooled band ordering violated at day %d", d)
		}
	}
	_ = ce.Converged(1.1) // smoke: must not panic
}

func TestEstimateGoldsteinChainsValidation(t *testing.T) {
	s := genSeries(t, 60, 24)
	if _, err := EstimateGoldsteinChains(s.Observations, s.Plant, 60, fastOpts(1), 1); err == nil {
		t.Fatal("single chain accepted")
	}
}

func TestInterpConcentration(t *testing.T) {
	obs := []wastewater.Observation{
		{Day: 10, Concentration: 100},
		{Day: 20, Concentration: 200},
	}
	if v := interpConcentration(obs, 5); v != 100 {
		t.Fatalf("clamp before first = %v", v)
	}
	if v := interpConcentration(obs, 25); v != 200 {
		t.Fatalf("clamp after last = %v", v)
	}
	if v := interpConcentration(obs, 15); v != 150 {
		t.Fatalf("midpoint = %v", v)
	}
	if v := interpConcentration(obs, 10); v != 100 {
		t.Fatalf("exact day = %v", v)
	}
}

func BenchmarkCoriFromWastewater(b *testing.B) {
	sc := wastewater.DefaultScenario(100)
	s := wastewater.Generate(wastewater.ChicagoPlants()[0], sc, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoriFromWastewater(s.Observations, 100, 7); err != nil {
			b.Fatal(err)
		}
	}
}
