package stats

import (
	"math"
	"sort"
	"testing"

	"osprey/internal/rng"
)

// referenceWeightedQuantile is the one-q weighted quantile as it was
// before WeightedQuantiles: one full sort per q. WeightedQuantiles must
// match it bit for bit.
func referenceWeightedQuantile(xs, ws []float64, q float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedQuantile length mismatch")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	total := 0.0
	for _, w := range ws {
		if w < 0 {
			return math.NaN()
		}
		total += w
	}
	if total <= 0 {
		return math.NaN()
	}
	target := q * total
	cum := 0.0
	for _, i := range idx {
		cum += ws[i]
		if cum >= target {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestWeightedQuantilesMatchesReference compares against the one-sort-per-q
// reference on inputs built so that a different tie order would show: few
// distinct values, zero weights, and weights of 1e16 next to weights of 1,
// so a tie group's cumulative sum depends on the order it is added in.
// Besides the ensemble's quantiles it queries q at every cumulative weight
// of the sorted input, where a rounding difference moves the answer to the
// next group.
func TestWeightedQuantilesMatchesReference(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(300)
		distinct := 1 + r.Intn(12)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(distinct)) * 0.1
			switch r.Intn(5) {
			case 0:
				ws[i] = 0
			case 1:
				ws[i] = 1
			case 2:
				ws[i] = 1e16
			default:
				ws[i] = r.Float64()
			}
		}
		qs := []float64{0, 0.025, 0.5, 0.975, 1}
		total := 0.0
		for _, w := range ws {
			total += w
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
		cum := 0.0
		for _, i := range idx {
			cum += ws[i]
			if q := cum / total; q <= 1 {
				qs = append(qs, q)
			}
		}
		got := WeightedQuantiles(xs, ws, qs...)
		for k, q := range qs {
			if want := referenceWeightedQuantile(xs, ws, q); !sameFloat(got[k], want) {
				t.Fatalf("trial %d q=%v: %v, reference %v", trial, q, got[k], want)
			}
			if one := WeightedQuantiles(xs, ws, q)[0]; !sameFloat(one, got[k]) {
				t.Fatalf("trial %d q=%v: one q %v, all qs %v", trial, q, one, got[k])
			}
		}
	}
}

func TestWeightedQuantilesDegenerate(t *testing.T) {
	qs := []float64{0, 0.5, 1}
	for _, c := range []struct {
		name   string
		xs, ws []float64
	}{
		{"empty", nil, nil},
		{"negative weight", []float64{1, 2, 3}, []float64{1, -1, 1}},
		{"zero total", []float64{1, 2}, []float64{0, 0}},
	} {
		got := WeightedQuantiles(c.xs, c.ws, qs...)
		if len(got) != len(qs) {
			t.Fatalf("%s: %d results for %d quantiles", c.name, len(got), len(qs))
		}
		for k, v := range got {
			if !math.IsNaN(v) {
				t.Fatalf("%s: q=%v gives %v, want NaN", c.name, qs[k], v)
			}
		}
	}
	// A NaN weight is not rejected; it must behave as the reference does.
	xs, ws := []float64{3, 1, 2}, []float64{1, math.NaN(), 1}
	for k, v := range WeightedQuantiles(xs, ws, qs...) {
		if want := referenceWeightedQuantile(xs, ws, qs[k]); !sameFloat(v, want) {
			t.Fatalf("NaN weight q=%v: %v, reference %v", qs[k], v, want)
		}
	}
}

func TestWeightedQuantilesPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		xs, ws []float64
		qs     []float64
	}{
		{"q below 0", []float64{1, 2}, []float64{1, 1}, []float64{0.5, -0.1}},
		{"q above 1", []float64{1, 2}, []float64{1, 1}, []float64{1.5}},
		{"length mismatch", []float64{1, 2}, []float64{1}, []float64{0.5}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", c.name)
				}
			}()
			WeightedQuantiles(c.xs, c.ws, c.qs...)
		}()
	}
}
