package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"osprey/internal/rt"
)

// wastewaterBitsDigest pins every number use case 1 publishes for a
// benchmark-size campaign (seeds 1–3, three daily cycles each): each
// plant's posterior draws, median, band and diagnostics, and the ensemble
// bands. It was computed before the likelihood, quantile and estimate-codec
// speedups, which are bit-identical rewrites; only a change that means to
// alter the published numbers may update it.
const wastewaterBitsDigest = "c67d46d9ddc6564c7606a863d4c5901c3d7da8af18b962cc91d0018c9a0c0d77"

func TestWastewaterOutputsBitsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p := newPlatform(t)
		wp, err := NewWastewaterPipeline(p, WastewaterConfig{
			ScenarioDays: 195,
			StartDay:     70,
			Goldstein:    rt.GoldsteinOptions{Iterations: 200, BurnIn: 300, Thin: 2},
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 3; cycle++ {
			if _, err := wp.PollAll(); err != nil {
				t.Fatal(err)
			}
			if runs := wp.Aggregate.Runs(); runs != cycle+1 {
				t.Fatalf("seed %d cycle %d: aggregate ran %d times, want %d", seed, cycle, runs, cycle+1)
			}
			for _, name := range wp.PlantNames() {
				est, err := wp.LatestEstimate(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range est.Draws {
					put(row...)
				}
				put(est.Median...)
				put(est.Lower...)
				put(est.Upper...)
				put(est.AcceptanceRate, est.MinESS)
			}
			ens, err := wp.LatestEnsemble()
			if err != nil {
				t.Fatal(err)
			}
			put(ens.Median...)
			put(ens.Lower...)
			put(ens.Upper...)
			wp.Advance(2)
		}
		wp.Close()
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wastewaterBitsDigest {
		t.Fatalf("use case 1 outputs changed: digest %s, want %s", got, wastewaterBitsDigest)
	}
}
