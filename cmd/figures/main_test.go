package main

import (
	"math"
	"strings"
	"testing"

	"osprey"
	"osprey/internal/music"
)

// sameScience accepts two bit-identical studies and names the first
// difference otherwise, down to one ulp and to a negative zero.
func TestSameScience(t *testing.T) {
	study := func() *osprey.GSAResult {
		return &osprey.GSAResult{
			FinalIndices: [][]float64{{0.5, 0.25}, {0.125, 0}},
			Histories: [][]music.Snapshot{
				{{N: 16, Indices: []float64{0.4, 0.2}, Total: []float64{0.6, 0.3}}},
				{{N: 16, Indices: []float64{0.1, 0}}, {N: 32, Indices: []float64{0.12, 0}}},
			},
		}
	}
	if err := sameScience(study(), study()); err != nil {
		t.Fatalf("identical studies: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *osprey.GSAResult)
		want   string
	}{
		{"replicate count", func(r *osprey.GSAResult) { r.FinalIndices = r.FinalIndices[:1] }, "replicate counts"},
		{"final index ulp", func(r *osprey.GSAResult) {
			r.FinalIndices[1][0] = math.Nextafter(r.FinalIndices[1][0], 1)
		}, "replicate 1 final indices: entry 0"},
		{"negative zero", func(r *osprey.GSAResult) { r.FinalIndices[1][1] = math.Copysign(0, -1) }, "replicate 1 final indices: entry 1"},
		{"snapshot count", func(r *osprey.GSAResult) { r.Histories[1] = r.Histories[1][:1] }, "replicate 1: 2 vs 1 snapshots"},
		{"snapshot N", func(r *osprey.GSAResult) { r.Histories[1][1].N = 33 }, "replicate 1 snapshot 1: N 32 vs 33"},
		{"history index", func(r *osprey.GSAResult) { r.Histories[0][0].Indices[1] *= 1 + 1e-15 }, "replicate 0 snapshot 0 indices: entry 1"},
		{"history total", func(r *osprey.GSAResult) { r.Histories[0][0].Total = r.Histories[0][0].Total[:1] }, "replicate 0 snapshot 0 total indices: length"},
	} {
		mutated := study()
		tc.mutate(mutated)
		err := sameScience(study(), mutated)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
