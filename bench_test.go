// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md. Each benchmark is named for
// the paper artifact it reproduces; cmd/figures renders the corresponding
// data files. Run with:
//
//	go test -bench=. -benchmem
package osprey_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osprey"
	"osprey/internal/abm"
	"osprey/internal/aero"
	"osprey/internal/design"
	"osprey/internal/emews"
	"osprey/internal/epi"
	"osprey/internal/gp"
	"osprey/internal/linalg"
	"osprey/internal/mcmc"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/obs"
	"osprey/internal/rng"
	"osprey/internal/rt"
	"osprey/internal/sobolidx"
	"osprey/internal/wal"
	"osprey/internal/wastewater"
)

// benchGoldstein is a reduced-but-real MCMC configuration so benchmark
// iterations complete in tenths of seconds rather than minutes.
func benchGoldstein() osprey.GoldsteinOptions {
	return osprey.GoldsteinOptions{Iterations: 200, BurnIn: 300, Thin: 2}
}

// BenchmarkFigure1WorkflowPipeline measures one full automated daily cycle
// of the Figure 1 workflow: four feed polls, four transforms, four
// Goldstein analyses through the batch scheduler, and the population-
// weighted aggregation.
func BenchmarkFigure1WorkflowPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := osprey.New(osprey.Config{Identity: "bench", Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		wp, err := osprey.NewWastewaterPipeline(p, osprey.WastewaterConfig{
			ScenarioDays: 100, StartDay: 70,
			Goldstein: benchGoldstein(), Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := wp.PollAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		wp.Close()
		p.Shutdown()
	}
}

// BenchmarkFigure2GoldsteinRt measures one plant's semi-parametric Bayesian
// R(t) estimation — the expensive step the paper routes to a compute node.
func BenchmarkFigure2GoldsteinRt(b *testing.B) {
	b.ReportAllocs()
	sc := wastewater.DefaultScenario(100)
	s := wastewater.Generate(wastewater.ChicagoPlants()[0], sc, rng.New(1))
	opt := benchGoldstein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i + 1)
		if _, err := rt.EstimateGoldstein(s.Observations, s.Plant, 100, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2CoriBaseline measures the "more standard" sliding-window
// estimator the paper cites for contrast; the Goldstein/Cori time ratio is
// the paper's justification for HPC resources.
func BenchmarkFigure2CoriBaseline(b *testing.B) {
	w := epi.DiscretizedGamma(5.2, 1.9, 14)
	sc := wastewater.DefaultScenario(100)
	seed := []float64{100, 100, 100, 100, 100}
	inc := epi.RenewalSimulate(sc.Rt, seed, w, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epi.CoriEstimate(inc, w, 7, 1, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2EnsembleAggregation measures the third workflow step: the
// population-weighted pooling of four plant posteriors.
func BenchmarkFigure2EnsembleAggregation(b *testing.B) {
	sc := wastewater.DefaultScenario(100)
	root := rng.New(3)
	var ests []*rt.Estimate
	for i, p := range wastewater.ChicagoPlants() {
		s := wastewater.Generate(p, sc, root.Split(p.Name))
		opt := benchGoldstein()
		opt.Seed = uint64(i + 1)
		est, err := rt.EstimateGoldstein(s.Observations, p, 100, opt)
		if err != nil {
			b.Fatal(err)
		}
		ests = append(ests, est)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.EnsembleWeighted(ests, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3MetaRVM measures one 90-day stochastic MetaRVM
// simulation over the four-group default configuration of Figure 3.
func BenchmarkFigure3MetaRVM(b *testing.B) {
	cfg := metarvm.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := metarvm.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ModelEvaluation measures the GSA quantity of interest at
// the center of the Table 1 parameter ranges.
func BenchmarkTable1ModelEvaluation(b *testing.B) {
	space := metarvm.GSAParameterSpace()
	x := space.Scale([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
	for i := 0; i < b.N; i++ {
		if _, err := metarvm.EvaluateGSA(x, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMusicOpts() osprey.MusicOptions {
	return osprey.MusicOptions{
		InitialDesign: 20, Budget: 50, CandidatePool: 80,
		RefitEvery: 10, IndexSamples: 256,
		GP: gp.Options{MaxIter: 60, Restarts: 0},
	}
}

// BenchmarkFigure4MUSIC measures one fixed-seed MUSIC GSA trajectory (the
// teal curves of Figure 4) at a reduced budget.
func BenchmarkFigure4MUSIC(b *testing.B) {
	b.ReportAllocs()
	space := metarvm.GSAParameterSpace()
	for i := 0; i < b.N; i++ {
		opts := benchMusicOpts()
		opts.Space = space
		opts.Seed = uint64(i + 1)
		alg, err := music.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		err = music.RunSequential(alg, func(x []float64) (float64, error) {
			return metarvm.EvaluateGSA(x, 11)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4PCE measures the one-shot PCE baseline (the magenta
// curves of Figure 4): nested LHS designs, degree-3 fit per size.
func BenchmarkFigure4PCE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := osprey.RunPCEComparison(nil, uint64(i+1), 11, []int{60, 100, 150, 200}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Replicates measures the replicated study of Figure 5:
// multiple MUSIC instances (one MetaRVM seed each) interleaved over one
// EMEWS worker pool.
func BenchmarkFigure5Replicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := osprey.New(osprey.Config{Identity: "bench", Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cfg := osprey.GSAConfig{Replicates: 3, Music: benchMusicOpts(), Nodes: 4, WorkersPerNode: 2, Seed: uint64(i + 1)}
		if _, err := osprey.RunGSA(p, cfg, true); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		p.Shutdown()
	}
}

// BenchmarkInterleavedVsSequential is the §3.2 utilization experiment:
// the same replicated study driven sequentially vs interleaved.
func BenchmarkInterleavedVsSequential(b *testing.B) {
	for _, mode := range []struct {
		name        string
		interleaved bool
	}{{"sequential", false}, {"interleaved", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := osprey.New(osprey.Config{Identity: "bench", Nodes: 8})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cfg := osprey.GSAConfig{
					Replicates: 4, Music: benchMusicOpts(),
					Nodes: 4, WorkersPerNode: 2,
					ModelDelay: 2 * time.Millisecond, Seed: uint64(i + 1),
				}
				res, err := osprey.RunGSA(p, cfg, mode.interleaved)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Pool.UtilizationPct, "util%")
				b.StopTimer()
				p.Shutdown()
			}
		})
	}
}

// BenchmarkIngestTransform measures the cheap login-node tier work of one
// ingestion poll cycle — fetch, checksum, validate/transform, store,
// version (the §2.2 "under a minute" claim; here: well under).
func BenchmarkIngestTransform(b *testing.B) {
	p, err := osprey.New(osprey.Config{Identity: "bench", Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Shutdown()
	// A long, bounded scenario (R(t) = 1 keeps incidence flat) so every
	// iteration can reveal fresh data; the plant samples every 2 days, so
	// each iteration advances 2 days.
	sc := wastewater.DefaultScenario(120)
	sc.Days = 6000
	sc.Rt = make([]float64, sc.Days)
	for i := range sc.Rt {
		sc.Rt[i] = 1
	}
	s := wastewater.Generate(wastewater.ChicagoPlants()[0], sc, rng.New(9))
	src := wastewater.NewLiveSource(s, 30)
	srv := httptest.NewServer(src)
	defer srv.Close()

	transformID, err := p.LoginCompute.RegisterFunction(p.Token.ID, "validate",
		func(ctx context.Context, body []byte) ([]byte, error) {
			obs, err := wastewater.ParseCSV(strings.NewReader(string(body)))
			if err != nil {
				return nil, err
			}
			var sb strings.Builder
			sb.WriteString("day,concentration\n")
			for _, o := range obs {
				fmt.Fprintf(&sb, "%d,%.6g\n", o.Day, o.Concentration)
			}
			return []byte(sb.String()), nil
		})
	if err != nil {
		b.Fatal(err)
	}
	flow, err := p.AERO.RegisterIngestion(aero.IngestionSpec{
		Name: "bench-feed", URL: srv.URL,
		Compute: p.LoginCompute, TransformID: transformID,
		Storage: p.StorageTarget(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src.Advance(2) // new sample every iteration so the update path runs
		b.StartTimer()
		updated, err := flow.Poll()
		if err != nil {
			b.Fatal(err)
		}
		if !updated && src.CurrentDay() < 6000 {
			b.Fatal("poll saw no update despite advance")
		}
	}
}

// BenchmarkAblationAcquisition compares the EIGF acquisition against
// pure-variance (ALM) and random refill on the MetaRVM GSA.
func BenchmarkAblationAcquisition(b *testing.B) {
	space := metarvm.GSAParameterSpace()
	for _, acq := range []music.AcqKind{music.EIGF, music.Variance, music.Random} {
		b.Run(acq.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := benchMusicOpts()
				opts.Space = space
				opts.Acquisition = acq
				opts.Seed = uint64(i + 1)
				alg, err := music.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := music.RunSequential(alg, func(x []float64) (float64, error) {
					return metarvm.EvaluateGSA(x, 11)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEnsembleWeights compares population-weighted against
// unweighted pooling of the four plant posteriors.
func BenchmarkAblationEnsembleWeights(b *testing.B) {
	sc := wastewater.DefaultScenario(100)
	root := rng.New(5)
	var ests []*rt.Estimate
	for i, p := range wastewater.ChicagoPlants() {
		s := wastewater.Generate(p, sc, root.Split(p.Name))
		opt := benchGoldstein()
		opt.Seed = uint64(50 + i)
		est, err := rt.EstimateGoldstein(s.Observations, p, 100, opt)
		if err != nil {
			b.Fatal(err)
		}
		ests = append(ests, est)
	}
	unweighted := []float64{1, 1, 1, 1}
	for _, mode := range []struct {
		name    string
		weights []float64
	}{{"population", nil}, {"unweighted", unweighted}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ens, err := rt.EnsembleWeighted(ests, mode.weights)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ens.MeanAbsError(sc.Rt, 14, 93), "mae")
			}
		})
	}
}

// BenchmarkAblationAdaptiveMH compares the adaptive random-walk Metropolis
// kernel against a fixed-scale kernel on a Goldstein-shaped posterior.
func BenchmarkAblationAdaptiveMH(b *testing.B) {
	logp := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			scale := 1.0 + 3.0*float64(i%3) // anisotropic target
			s += v * v / (scale * scale)
		}
		return -0.5 * s
	}
	x0 := make([]float64, 12)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"adaptive", false}, {"fixed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, err := mcmc.RunComponentwise(logp, x0, mcmc.Options{
					Iterations: 500, BurnIn: 500,
					DisableAdapt: mode.disable,
					Rand:         rng.New(uint64(i + 1)),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ch.ESS(0), "ess")
			}
		})
	}
}

// BenchmarkAblationBatchSize compares single-point acquisition (the
// paper's setting) against batched acquisition, which packs worker pools
// better at a small acquisition-optimality cost.
func BenchmarkAblationBatchSize(b *testing.B) {
	space := metarvm.GSAParameterSpace()
	for _, q := range []int{1, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := benchMusicOpts()
				opts.Space = space
				opts.BatchSize = q
				opts.Seed = uint64(i + 1)
				alg, err := music.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				pts, err := alg.InitialDesign()
				if err != nil {
					b.Fatal(err)
				}
				evalAll := func(pts [][]float64) []float64 {
					vals := make([]float64, len(pts))
					for k, p := range pts {
						y, err := metarvm.EvaluateGSA(p, 11)
						if err != nil {
							b.Fatal(err)
						}
						vals[k] = y
					}
					return vals
				}
				if err := alg.Observe(pts, evalAll(pts)); err != nil {
					b.Fatal(err)
				}
				for !alg.Done() {
					batch, err := alg.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					if err := alg.Observe(batch, evalAll(batch)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkExpensiveModelTimeToSolution is the §3.3 argument made
// concrete: on an expensive agent-based model (~40 ms/run vs MetaRVM's
// ~2 ms), the surrogate-driven MUSIC needs far fewer model runs than a
// direct pick–freeze Sobol estimate, so its time-to-solution advantage
// grows with model cost. The run counts are reported as metrics.
func BenchmarkExpensiveModelTimeToSolution(b *testing.B) {
	space := metarvm.GSAParameterSpace()
	b.Run("music-surrogate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := benchMusicOpts()
			opts.Space = space
			opts.InitialDesign = 15
			opts.Budget = 40
			opts.Seed = uint64(i + 1)
			alg, err := music.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			runs := 0
			if err := music.RunSequential(alg, func(x []float64) (float64, error) {
				runs++
				return abm.EvaluateGSA(x, 11)
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(runs), "model-runs")
		}
	})
	b.Run("direct-saltelli", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runs := 0
			if _, err := sobolidx.Estimate(func(u []float64) float64 {
				runs++
				y, err := abm.EvaluateGSA(space.Scale(u), 11)
				if err != nil {
					b.Fatal(err)
				}
				return y
			}, space.Dim(), sobolidx.Options{N: 32, Clamp01: true}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(runs), "model-runs")
		}
	})
}

// BenchmarkCholeskyBlocked measures the cache-tiled blocked factorization
// behind linalg.NewCholesky at sizes above the crossover, on an SPD matrix
// with GP-covariance structure (squared-exponential kernel plus nugget) —
// the matrix shape every surrogate fit factors.
func BenchmarkCholeskyBlocked(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := linalg.NewDense(n, n)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = math.Mod(float64(i)*0.6180339887498949, 1.0)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				d := (pts[i] - pts[j]) / 0.3
				v := math.Exp(-0.5 * d * d)
				if i == j {
					v += 1e-6
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.NewCholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSurrogateCrossover charts the dense-vs-sparse fit-time crossover
// on a smooth 5-dimensional response: the dense GP at the design sizes it
// can reach, the sparse inducing-point surrogate (m=256) through the 10k
// designs the dense path cannot. The sparse/n=10000 time landing under
// dense/n=1000 is the scalability acceptance criterion of the surrogate
// layer (see DESIGN.md "Scalable surrogates").
func BenchmarkSurrogateCrossover(b *testing.B) {
	const dim = 5
	opts := gp.Options{MaxIter: 60, Restarts: 0}
	data := func(n int) ([][]float64, []float64) {
		x := design.LatinHypercube(rng.New(uint64(n)), n, dim)
		y := make([]float64, n)
		for i, u := range x {
			y[i] = math.Sin(3*u[0]) + 2*u[1]*u[1] - u[2] + 0.5*u[3]*u[4]
		}
		return x, y
	}
	for _, n := range []int{200, 1000} {
		x, y := data(n)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gp.Fit(x, y, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{200, 1000, 5000, 10000} {
		x, y := data(n)
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gp.FitSparse(x, y, 256, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrateThroughput measures the EMEWS wire substrate end to
// end over real TCP: submit -> pop -> complete for every task, driven by
// four worker connections. The sub-benchmarks compare batch 1 against
// batch 16 (pop_batch/finish_batch, one exchange per lease). Reported
// metrics: tasks/s and the p99 server-side pop wait.
func BenchmarkSubstrateThroughput(b *testing.B) {
	const workers = 4
	for _, mode := range []struct {
		name  string
		batch int
	}{
		{"binary-b1", 1},
		{"binary-b16", 16},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db := emews.NewDB()
			defer db.Close()
			srv, err := emews.Serve(db, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			opTimeout := emews.WithOpTimeout(10 * time.Second)

			var completed atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := emews.Dial(srv.Addr(), opTimeout)
					if err != nil {
						b.Error(err)
						return
					}
					defer cl.Close()
					for {
						select {
						case <-done:
							return
						default:
						}
						if mode.batch > 1 {
							tasks, err := cl.PopBatch("bench", mode.batch, 50*time.Millisecond)
							if err != nil || len(tasks) == 0 {
								continue
							}
							fins := make([]emews.FinishOp, len(tasks))
							for i, task := range tasks {
								fins[i] = emews.FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: "ok"}
							}
							errs, berr := cl.FinishBatch(fins)
							if berr != nil {
								continue
							}
							for _, e := range errs {
								if e == nil {
									completed.Add(1)
								}
							}
						} else {
							task, ok, err := cl.Pop("bench", 50*time.Millisecond)
							if err != nil || !ok {
								continue
							}
							if cl.Complete(task.ID, task.Epoch, "ok") == nil {
								completed.Add(1)
							}
						}
					}
				}()
			}

			driver, err := emews.Dial(srv.Addr(), opTimeout)
			if err != nil {
				b.Fatal(err)
			}
			defer driver.Close()

			before := obs.Default().Snapshot()
			b.ResetTimer()
			start := time.Now()
			if mode.batch > 1 {
				for sent := 0; sent < b.N; sent += mode.batch {
					n := mode.batch
					if b.N-sent < n {
						n = b.N - sent
					}
					payloads := make([]string, n)
					for i := range payloads {
						payloads[i] = fmt.Sprintf("task-%d", sent+i)
					}
					if _, err := driver.SubmitBatch("bench", 0, payloads, 0); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for i := 0; i < b.N; i++ {
					if _, err := driver.Submit("bench", 0, fmt.Sprintf("task-%d", i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			for completed.Load() < int64(b.N) {
				time.Sleep(200 * time.Microsecond)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			close(done)
			wg.Wait()

			delta := obs.Default().Snapshot().Delta(before)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tasks/s")
			b.ReportMetric(delta.Histograms["emews.pop.wait_seconds"].P99Seconds*1e3, "p99-pop-ms")
		})
	}
}

// BenchmarkSubstrateThroughputSharded measures the routed shard-group
// path end to end over real TCP at batch 16: per shard an in-memory task
// DB carrying its shard identity behind its own listener, workers driving
// pop_batch/finish_batch through a shard-group Client (fan-out with the
// deterministic merge), and ring-keyed batch submits from a routed
// driver. shards-1 is binary-b16's path with shard identities on the
// servers; shards-3 adds the fan-out over several members and lets the
// shards drain in parallel where cores allow. Reported metric: tasks/s.
func BenchmarkSubstrateThroughputSharded(b *testing.B) {
	const workers = 4
	const batch = 16
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			addrs := make([]string, shards)
			for i := 0; i < shards; i++ {
				db, err := emews.NewDBShard(i, shards)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				srv, err := emews.Serve(db, "127.0.0.1:0", emews.WithShardIdentity(i, shards))
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}

			var completed atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := emews.DialShardGroup(addrs, emews.WithOpTimeout(10*time.Second))
					if err != nil {
						b.Error(err)
						return
					}
					defer cl.Close()
					for {
						select {
						case <-done:
							return
						default:
						}
						tasks, err := cl.PopBatch("bench", batch, 50*time.Millisecond)
						if err != nil || len(tasks) == 0 {
							continue
						}
						fins := make([]emews.FinishOp, len(tasks))
						for i, task := range tasks {
							fins[i] = emews.FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: "ok"}
						}
						errs, berr := cl.FinishBatch(fins)
						if berr != nil {
							continue
						}
						for _, e := range errs {
							if e == nil {
								completed.Add(1)
							}
						}
					}
				}()
			}

			driver, err := emews.DialShardGroup(addrs, emews.WithOpTimeout(10*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			defer driver.Close()

			b.ResetTimer()
			start := time.Now()
			for sent := 0; sent < b.N; sent += batch {
				n := batch
				if b.N-sent < n {
					n = b.N - sent
				}
				payloads := make([]string, n)
				for i := range payloads {
					payloads[i] = fmt.Sprintf("task-%d", sent+i)
				}
				if _, err := driver.SubmitBatch("bench", 0, payloads, 0); err != nil {
					b.Fatal(err)
				}
			}
			for completed.Load() < int64(b.N) {
				time.Sleep(200 * time.Microsecond)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			close(done)
			wg.Wait()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tasks/s")
		})
	}
}

// BenchmarkWALAppend measures the write-ahead log's per-mutation cost in
// both durability modes: fsync-per-append (the daemon's default, bounded
// by device flush latency) and no-fsync (the OS-crash-only guarantee,
// bounded by encoding + buffered write). Payloads are ~200-byte JSON
// AERO mutations (a data.version record); the log treats payloads as
// opaque bytes, so only their size matters here.
// fsync-always-b16 appends 16 records per call, as a batch op of the task
// database commits them: one write and one fsync per call, so its MB/s
// against fsync-always's shows the per-record cost batching saves.
func BenchmarkWALAppend(b *testing.B) {
	payload := []byte(`{"op":"data.version","uuid":"data-00000001","version":{"num":3,` +
		`"timestamp":"2026-08-06T00:00:00Z","checksum":"9f86d081884c7d659a2feaa0c55ad015",` +
		`"size":16384,"endpoint":"globus-local","collection":"raw","path":"plant/day-204.json"}}`)
	for _, mode := range []struct {
		name   string
		policy wal.SyncPolicy
		batch  int
	}{
		{"fsync-always", wal.SyncAlways, 1},
		{"fsync-never", wal.SyncNever, 1},
		{"fsync-always-b16", wal.SyncAlways, 16},
	} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{Name: "wal.bench", Policy: mode.policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Replay(func([]byte) error { return nil }); err != nil {
				b.Fatal(err)
			}
			recs := make([][]byte, mode.batch)
			for i := range recs {
				recs[i] = payload
			}
			b.SetBytes(int64(mode.batch * len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(recs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALReplay measures boot-time recovery: open a log holding 100k
// mutation records and replay it end to end. This is the replay debt a
// crashed daemon pays before serving, and what snapshot compaction bounds.
// The ~120-byte payload is nominal: the log treats payloads as opaque
// bytes, and EMEWS records are binary (internal/emews/record.go).
func BenchmarkWALReplay(b *testing.B) {
	const records = 100_000
	payload := []byte(`{"op":"submit","task":{"id":12345,"queue":"daemon.probe",` +
		`"priority":0,"payload":"probe-1","status":1,"max_attempts":3}}`)
	dir := b.TempDir()
	l, err := wal.Open(dir, wal.Options{Name: "wal.bench.seed", Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Replay(func([]byte) error { return nil }); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, err := wal.Open(dir, wal.Options{Name: "wal.bench.replay", Policy: wal.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		n, err := rl.Replay(func([]byte) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		rl.Close()
	}
}

// BenchmarkWatchFanout measures the metadata watch path fanning one
// version append out to 1000 subscribers over real HTTP: one persistent
// SSE stream per subscriber on GET /watch, fed by the store's
// bounded-queue subscription hub. Reported metric: deliveries/s
// (events × subscribers over wall time).
func BenchmarkWatchFanout(b *testing.B) {
	const subscribers = 1000

	b.Run("sse-1k", func(b *testing.B) {
		store := aero.NewStore()
		srv := httptest.NewServer(aero.NewServer(store))
		defer srv.Close()
		rec, err := store.CreateData("hot", "")
		if err != nil {
			b.Fatal(err)
		}
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: subscribers}}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var delivered atomic.Int64
		var ready sync.WaitGroup
		var readers sync.WaitGroup
		for i := 0; i < subscribers; i++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch?buffer=1024", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Accept", "text/event-stream")
			resp, err := hc.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("watch stream: status %d", resp.StatusCode)
			}
			ready.Add(1)
			readers.Add(1)
			go func(body io.ReadCloser) {
				defer readers.Done()
				defer body.Close()
				sc := bufio.NewScanner(body)
				seenReady := false
				for sc.Scan() {
					switch sc.Text() {
					case "event: ready":
						if !seenReady {
							seenReady = true
							ready.Done()
						}
					case "event: update":
						delivered.Add(1)
					}
				}
			}(resp.Body)
		}
		ready.Wait()
		start := time.Now()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := store.AppendVersion(rec.UUID, aero.Version{Checksum: "bench"}); err != nil {
				b.Fatal(err)
			}
			for want := int64(subscribers) * int64(n+1); delivered.Load() < want; {
				time.Sleep(50 * time.Microsecond)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*subscribers/time.Since(start).Seconds(), "deliveries/s")
		cancel()
		readers.Wait()
	})
}
