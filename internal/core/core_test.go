package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"osprey/internal/aero"
	"osprey/internal/gp"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/rt"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(Config{Identity: "alice", Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func fastWWConfig() WastewaterConfig {
	return WastewaterConfig{
		ScenarioDays: 100,
		StartDay:     70,
		Goldstein:    rt.GoldsteinOptions{Iterations: 250, BurnIn: 400, Thin: 2},
		Seed:         42,
	}
}

func TestPlatformAssembly(t *testing.T) {
	p := newPlatform(t)
	if p.LoginCompute.EngineDescription() != "login-node" {
		t.Fatal("login tier misconfigured")
	}
	if !strings.Contains(p.BatchCompute.EngineDescription(), "batch") {
		t.Fatal("batch tier misconfigured")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("identity-less platform accepted")
	}
}

func TestFigure1WorkflowTopology(t *testing.T) {
	p := newPlatform(t)
	wp, err := NewWastewaterPipeline(p, fastWWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()

	// Four plants, Figure 1's names.
	names := wp.PlantNames()
	want := []string{"O'Brien", "Calumet", "Stickney South", "Stickney North"}
	if len(names) != 4 {
		t.Fatalf("want 4 plants, got %d", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("plant %d = %q, want %q", i, names[i], want[i])
		}
	}

	// Metadata: 4 ingestion flows + 4 analysis + 1 aggregate.
	flows, err := p.Meta.ListFlows()
	if err != nil {
		t.Fatal(err)
	}
	ing, ana := 0, 0
	for _, f := range flows {
		switch f.Kind {
		case aero.IngestionKind:
			ing++
		case aero.AnalysisKind:
			ana++
		}
	}
	if ing != 4 || ana != 5 {
		t.Fatalf("flow topology %d ingestion / %d analysis, want 4/5", ing, ana)
	}

	// Aggregate flow subscribes to exactly the four estimate UUIDs with
	// the all-inputs policy (checked behaviorally below and in the
	// dedicated trigger tests).
	for _, name := range names {
		ingf, anaf, err := wp.PlantFlow(name)
		if err != nil {
			t.Fatal(err)
		}
		if ingf == nil || anaf == nil {
			t.Fatalf("missing flows for %s", name)
		}
	}
}

func TestWastewaterPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	wp, err := NewWastewaterPipeline(p, fastWWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()

	// First daily cycle: all four feeds are new, so every analysis and
	// the aggregate must run.
	updates, err := wp.PollAll()
	if err != nil {
		t.Fatal(err)
	}
	if updates != 4 {
		t.Fatalf("first poll updated %d feeds, want 4", updates)
	}
	if wp.Aggregate.Runs() != 1 {
		t.Fatalf("aggregate ran %d times, want 1", wp.Aggregate.Runs())
	}

	// Estimates exist and cover the truth reasonably.
	truth := wp.TruthRt()
	for _, name := range wp.PlantNames() {
		est, err := wp.LatestEstimate(name)
		if err != nil {
			t.Fatal(err)
		}
		cov := est.Coverage(truth, 14, len(est.Median)-7)
		if cov < 0.5 {
			t.Fatalf("%s coverage %.0f%% too low", name, cov*100)
		}
	}
	ens, err := wp.LatestEnsemble()
	if err != nil {
		t.Fatal(err)
	}
	if cov := ens.Coverage(truth, 14, len(ens.Median)-7); cov < 0.5 {
		t.Fatalf("ensemble coverage %.0f%% too low", cov*100)
	}

	// No new data: nothing triggers.
	updates, err = wp.PollAll()
	if err != nil {
		t.Fatal(err)
	}
	if updates != 0 || wp.Aggregate.Runs() != 1 {
		t.Fatalf("no-change poll: updates=%d aggRuns=%d", updates, wp.Aggregate.Runs())
	}

	// A week of new data arrives: full retrigger.
	wp.Advance(7)
	updates, err = wp.PollAll()
	if err != nil {
		t.Fatal(err)
	}
	if updates != 4 || wp.Aggregate.Runs() != 2 {
		t.Fatalf("post-advance poll: updates=%d aggRuns=%d", updates, wp.Aggregate.Runs())
	}

	// Plots were produced for sharing with stakeholders.
	plots, err := wp.LatestPlots()
	if err != nil {
		t.Fatal(err)
	}
	if len(plots) != 5 {
		t.Fatalf("want 5 plots (4 plants + ensemble), got %d", len(plots))
	}
	for name, body := range plots {
		if !strings.Contains(body, "R(t)") {
			t.Fatalf("plot %s malformed", name)
		}
	}

	// The expensive analyses went through the batch scheduler.
	if p.Cluster.Stats().Completed < 8 {
		t.Fatalf("cluster completed %d jobs, want >= 8 R(t) runs", p.Cluster.Stats().Completed)
	}
}

func TestComputeTierRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	cfg := fastWWConfig()
	cfg.Goldstein = rt.GoldsteinOptions{Iterations: 100, BurnIn: 150}
	wp, err := NewWastewaterPipeline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	before := p.Cluster.Stats().Completed
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}
	after := p.Cluster.Stats().Completed
	// Exactly the four R(t) analyses hit the scheduler; transform and
	// aggregation ran on the login tier without batch jobs.
	if after-before != 4 {
		t.Fatalf("batch jobs = %d, want 4 (one per plant analysis)", after-before)
	}
}

func TestTriggerPolicyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// With TriggerAll (paper's choice) the aggregate runs once per full
	// round; this test documents the alternative: under TriggerAny it
	// would run once per input update (4x the work per round).
	p := newPlatform(t)
	cfg := fastWWConfig()
	cfg.Goldstein = rt.GoldsteinOptions{Iterations: 80, BurnIn: 120}
	wp, err := NewWastewaterPipeline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}
	if runs := wp.Aggregate.Runs(); runs != 1 {
		t.Fatalf("TriggerAll aggregate ran %d times for one full round, want 1", runs)
	}
}

func fastGSAConfig(reps int) GSAConfig {
	return GSAConfig{
		Replicates: reps,
		Music: music.Options{
			InitialDesign: 15, Budget: 30, CandidatePool: 50,
			RefitEvery: 8, IndexSamples: 256,
			GP: gp.Options{MaxIter: 50, Restarts: 0},
		},
		Nodes: 4, WorkersPerNode: 2,
		Seed: 7,
	}
}

func TestRunGSAInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	res, err := RunGSA(p, fastGSAConfig(3), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histories) != 3 || len(res.FinalIndices) != 3 {
		t.Fatalf("want 3 replicates, got %d", len(res.Histories))
	}
	if res.Evaluations != 3*30 {
		t.Fatalf("evaluations = %d, want 90", res.Evaluations)
	}
	for r, idx := range res.FinalIndices {
		sum := 0.0
		for _, v := range idx {
			if v < 0 || v > 1 {
				t.Fatalf("replicate %d index %v out of range", r, v)
			}
			sum += v
		}
		// ts and psh dominate hospitalization variance; together they
		// should carry substantial first-order mass.
		if idx[0]+idx[3] < 0.3 {
			t.Fatalf("replicate %d: ts+psh indices %v implausibly small", r, idx)
		}
	}
	// Histories track sample counts.
	for _, h := range res.Histories {
		if len(h) == 0 || h[len(h)-1].N != 30 {
			t.Fatalf("history malformed: %+v", h)
		}
	}
}

func TestInterleavingUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// The §3.2 claim: interleaving the instances yields materially better
	// pool utilization (and makespan) than running them sequentially,
	// because single-point refinement batches cannot fill the pool.
	p1 := newPlatform(t)
	cfg := fastGSAConfig(4)
	cfg.ModelDelay = 3 * time.Millisecond
	seqRes, err := RunGSA(p1, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newPlatform(t)
	intRes, err := RunGSA(p2, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential: %.1f%% util, %v; interleaved: %.1f%% util, %v",
		seqRes.Pool.UtilizationPct, seqRes.Elapsed, intRes.Pool.UtilizationPct, intRes.Elapsed)
	if intRes.Pool.UtilizationPct <= seqRes.Pool.UtilizationPct {
		t.Fatalf("interleaving did not improve utilization: %.1f%% vs %.1f%%",
			intRes.Pool.UtilizationPct, seqRes.Pool.UtilizationPct)
	}
	// Results must not depend on scheduling mode, to the bit: every
	// replicate's final indices and its whole convergence history.
	if len(intRes.FinalIndices) != len(seqRes.FinalIndices) || len(intRes.Histories) != len(seqRes.Histories) {
		t.Fatalf("replicate counts differ: %d/%d vs %d/%d", len(intRes.FinalIndices), len(intRes.Histories),
			len(seqRes.FinalIndices), len(seqRes.Histories))
	}
	for r := range seqRes.FinalIndices {
		if msg := diffBits(seqRes.FinalIndices[r], intRes.FinalIndices[r]); msg != "" {
			t.Fatalf("replicate %d final indices: %s", r, msg)
		}
		seqH, intH := seqRes.Histories[r], intRes.Histories[r]
		if len(seqH) != len(intH) {
			t.Fatalf("replicate %d: %d snapshots sequential, %d interleaved", r, len(seqH), len(intH))
		}
		for k := range seqH {
			if seqH[k].N != intH[k].N {
				t.Fatalf("replicate %d snapshot %d: N %d vs %d", r, k, seqH[k].N, intH[k].N)
			}
			if msg := diffBits(seqH[k].Indices, intH[k].Indices); msg != "" {
				t.Fatalf("replicate %d snapshot %d indices: %s", r, k, msg)
			}
			if msg := diffBits(seqH[k].Total, intH[k].Total); msg != "" {
				t.Fatalf("replicate %d snapshot %d total indices: %s", r, k, msg)
			}
		}
	}
}

// diffBits describes the first difference between two vectors compared
// bit for bit, or returns "" when they are identical.
func diffBits(want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("length %d vs %d", len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Sprintf("entry %d: %v vs %v", i, want[i], got[i])
		}
	}
	return ""
}

// TestRunGSAStopsOnFirstError breaks an interleaved study once refinement
// is under way, either by failing one instance's task or by closing the
// task database. RunGSA must return that error promptly, not a
// cancellation; when one task fails, the other instances must stop too
// rather than run out their budgets; and every instance goroutine must
// have exited by the time RunGSA returns.
func TestRunGSAStopsOnFirstError(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, tc := range []struct {
		name       string
		breakStudy func(t *testing.T, p *Platform, taskType string)
		want       string
	}{
		{"task fails", func(t *testing.T, p *Platform, taskType string) {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				c, ok, err := p.TaskDB.TryPop(taskType)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if err := c.Fail("injected failure"); err != nil {
						t.Fatal(err)
					}
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
			t.Fatal("no queued task to fail within 10s")
		}, "injected failure"},
		{"database closes", func(t *testing.T, p *Platform, _ string) {
			p.TaskDB.Close()
		}, "emews:"}, // a canceled task or the closed database, not context.Canceled
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			cfg := fastGSAConfig(4)
			cfg.Music.Budget = 200
			// One slow worker keeps tasks queued, so the test can claim one.
			cfg.Nodes, cfg.WorkersPerNode = 1, 1
			cfg.ModelDelay = 2 * time.Millisecond
			if err := cfg.defaults(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := RunGSA(p, cfg, true)
				done <- err
			}()
			initial := cfg.Replicates * cfg.Music.InitialDesign
			for p.TaskDB.Stats().Complete < initial+cfg.Replicates {
				select {
				case err := <-done:
					t.Fatalf("study ended before it was broken: %v", err)
				case <-time.After(time.Millisecond):
				}
			}
			tc.breakStudy(t, p, cfg.TaskType)
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("RunGSA still running 10s after the study broke")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunGSA returned %v, want the %q error", err, tc.want)
			}
			// Without cancellation the healthy instances would run to
			// their budgets; with it each submits at most one more point.
			if n, full := p.TaskDB.Stats().Submitted, (cfg.Replicates-1)*cfg.Music.Budget; n >= full {
				t.Fatalf("%d tasks submitted: the other instances ran on after the error", n)
			}
			// RunGSA waits for its instance goroutines, so none may remain.
			buf := make([]byte, 1<<20)
			if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "core.drainInstance") {
				t.Fatalf("an instance goroutine outlived RunGSA:\n%s", stacks)
			}
		})
	}
}

func TestRunPCEComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cmp, err := RunPCEComparison(nil, 5, 11, []int{60, 100, 150}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Sizes) != 3 {
		t.Fatalf("sizes = %v", cmp.Sizes)
	}
	for k, idx := range cmp.Indices {
		if len(idx) != 5 {
			t.Fatalf("index vector %d has %d entries", k, len(idx))
		}
	}
	if _, err := RunPCEComparison(nil, 1, 1, nil, 3); err == nil {
		t.Fatal("empty sizes accepted")
	}
}

func TestGSAValidation(t *testing.T) {
	if _, err := RunGSA(nil, GSAConfig{}, true); err == nil {
		t.Fatal("nil platform accepted")
	}
}

func TestFigure4MUSICStabilizesBeforePCE(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// The structural half of the Figure 4 claim: MUSIC produces index
	// estimates from its first LHS batch onward — below the 56-sample
	// floor where a degree-3, 5-parameter PCE can exist at all — and its
	// final estimates agree with the PCE fit at the shared budget.
	const modelSeed = 11
	space := metarvm.GSAParameterSpace()
	opts := music.Options{
		Space: space, InitialDesign: 20, Budget: 80,
		CandidatePool: 60, IndexSamples: 256,
		GP:   gp.Options{MaxIter: 50, Restarts: 0},
		Seed: 4,
	}
	alg, err := music.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := music.RunSequential(alg, func(x []float64) (float64, error) {
		return metarvm.EvaluateGSA(x, modelSeed)
	}); err != nil {
		t.Fatal(err)
	}
	hist := alg.History()
	if hist[0].N >= 56 {
		t.Fatalf("MUSIC's first estimate needs %d samples; should precede PCE's 56-term floor", hist[0].N)
	}
	pceCmp, err := RunPCEComparison(space, 4, modelSeed, []int{60, 80}, 3)
	if err != nil {
		t.Fatal(err)
	}
	musicIdx, _ := alg.Indices()
	pceIdx := pceCmp.Indices[len(pceCmp.Indices)-1]
	// Agreement on the dominant parameter and rough magnitudes.
	argmax := func(v []float64) int {
		best := 0
		for i := range v {
			if v[i] > v[best] {
				best = i
			}
		}
		return best
	}
	if argmax(musicIdx) != argmax(pceIdx) {
		t.Fatalf("MUSIC and PCE disagree on the dominant parameter: %v vs %v", musicIdx, pceIdx)
	}
}

func TestFigure5ReplicateSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	res, err := RunGSA(p, fastGSAConfig(4), true)
	if err != nil {
		t.Fatal(err)
	}
	// Epistemic consistency: every replicate agrees on the dominant
	// parameter.
	argmax := func(v []float64) int {
		best := 0
		for i := range v {
			if v[i] > v[best] {
				best = i
			}
		}
		return best
	}
	first := argmax(res.FinalIndices[0])
	spread := 0.0
	for _, idx := range res.FinalIndices {
		if argmax(idx) != first {
			t.Fatalf("replicates disagree on the dominant parameter: %v", res.FinalIndices)
		}
		spread += idx[first]
	}
	mean := spread / float64(len(res.FinalIndices))
	// Aleatoric spread: replicates are not identical (different model
	// seeds must leave a trace), but they cluster around the mean.
	identical := true
	for _, idx := range res.FinalIndices[1:] {
		if idx[first] != res.FinalIndices[0][first] {
			identical = false
		}
		if v := idx[first]; v < mean-0.25 || v > mean+0.25 {
			t.Fatalf("replicate index %v far from replicate mean %v", v, mean)
		}
	}
	if identical {
		t.Fatal("replicates with different seeds produced identical indices")
	}
}

func TestMeanResponseGSA(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// The §3.1.2 contrast: GSA on the mean response (averaging replicates
	// per point) vs per-replicate GSA. Mean-response runs must cost
	// MeanReplicates model evaluations per task and produce less
	// replicate-to-replicate spread (the averaging removes aleatoric
	// variance from the surrogate's view).
	p := newPlatform(t)
	cfg := fastGSAConfig(2)
	cfg.MeanReplicates = 3
	res, err := RunGSA(p, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalIndices) != 2 {
		t.Fatalf("replicates = %d", len(res.FinalIndices))
	}
	// Sanity: indices remain valid and the dominant parameter holds.
	for _, idx := range res.FinalIndices {
		for _, v := range idx {
			if v < 0 || v > 1 {
				t.Fatalf("index %v out of range", v)
			}
		}
		if idx[0] < 0.1 {
			t.Fatalf("ts index %v implausibly small under mean response", idx[0])
		}
	}
}

func TestRunGSAOnABM(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	cfg := fastGSAConfig(2)
	cfg.Model = "abm"
	cfg.Music.InitialDesign = 10
	cfg.Music.Budget = 16
	res, err := RunGSA(p, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 2*16 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	for _, idx := range res.FinalIndices {
		for _, v := range idx {
			if v < 0 || v > 1 {
				t.Fatalf("index %v out of range", v)
			}
		}
	}
	// Unknown models are rejected.
	bad := fastGSAConfig(1)
	bad.Model = "spherical-cow"
	if _, err := RunGSA(newPlatform(t), bad, true); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestWastewaterConfigValidation(t *testing.T) {
	p := newPlatform(t)
	if _, err := NewWastewaterPipeline(p, WastewaterConfig{ScenarioDays: 50, StartDay: 80}); err == nil {
		t.Fatal("StartDay beyond scenario accepted")
	}
}

func TestPlantLookupErrors(t *testing.T) {
	p := newPlatform(t)
	wp, err := NewWastewaterPipeline(p, fastWWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if _, _, err := wp.PlantFlow("Atlantis"); err == nil {
		t.Fatal("unknown plant flow lookup accepted")
	}
	if _, err := wp.LatestEstimate("Atlantis"); err == nil {
		t.Fatal("unknown plant estimate lookup accepted")
	}
	// Before any poll there is no ensemble yet.
	if _, err := wp.LatestEnsemble(); err == nil {
		t.Fatal("ensemble available before any run")
	}
}

func TestTruthRtIsCopy(t *testing.T) {
	p := newPlatform(t)
	wp, err := NewWastewaterPipeline(p, fastWWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	a := wp.TruthRt()
	a[0] = -99
	b := wp.TruthRt()
	if b[0] == -99 {
		t.Fatal("TruthRt leaked internal state")
	}
}
