// Command figures regenerates every table and figure of the paper's
// evaluation from the reproduced system, writing CSV data and ASCII
// renderings under an output directory.
//
// Usage:
//
//	figures [-out out] [-quick] [-fig 1-5] [-table 1] [-exp name] [-all]
//
// With -all (the default when no selector is given) every artifact is
// produced. -quick reduces MCMC iterations and GSA budgets so the full set
// completes in a couple of minutes on a laptop; drop it for
// publication-scale settings.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"osprey"
	"osprey/internal/abm"
	"osprey/internal/aero"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/plot"
	"osprey/internal/sobolidx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		outDir = flag.String("out", "out", "output directory")
		quick  = flag.Bool("quick", false, "reduced settings for fast runs")
		fig    = flag.Int("fig", 0, "regenerate one figure (1-5)")
		table  = flag.Int("table", 0, "regenerate one table (1)")
		exp    = flag.String("exp", "", "regenerate one named experiment (utilization | time-to-solution)")
		all    = flag.Bool("all", false, "regenerate everything")
	)
	flag.Parse()

	if *fig == 0 && *table == 0 && *exp == "" {
		*all = true
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	g := &generator{out: *outDir, quick: *quick}

	run := func(name string, fn func() error) {
		start := time.Now()
		log.Printf("generating %s ...", name)
		if err := fn(); err != nil {
			log.Fatalf("%s failed: %v", name, err)
		}
		log.Printf("%s done in %v", name, time.Since(start).Round(time.Millisecond))
	}
	if *all || *table == 1 {
		run("table1", g.table1)
	}
	if *all || *fig == 1 {
		run("figure1", g.figure1)
	}
	if *all || *fig == 2 {
		run("figure2", g.figure2)
	}
	if *all || *fig == 3 {
		run("figure3", g.figure3)
	}
	if *all || *fig == 4 {
		run("figure4", g.figure4)
	}
	if *all || *fig == 5 {
		run("figure5", g.figure5)
	}
	if *all || *exp == "utilization" {
		run("utilization", g.utilization)
	}
	if *all || *exp == "time-to-solution" {
		run("time-to-solution", g.timeToSolution)
	}
}

// timeToSolution makes the §3.3 claim a regenerable artifact: on the
// expensive agent-based model, compare MUSIC's model-run count and wall
// time against a direct pick–freeze Sobol estimate of similar quality.
func (g *generator) timeToSolution() error {
	space := metarvm.GSAParameterSpace()
	const modelSeed = 11

	budget := 60
	directN := 48 // direct estimator base sample (48*(5+2)=336 runs)
	if !g.quick {
		budget = 120
		directN = 64
	}

	musicStart := time.Now()
	alg, err := music.New(music.Options{
		Space: space, InitialDesign: 20, Budget: budget, Seed: 4,
	})
	if err != nil {
		return err
	}
	musicRuns := 0
	if err := music.RunSequential(alg, func(x []float64) (float64, error) {
		musicRuns++
		return abm.EvaluateGSA(x, modelSeed)
	}); err != nil {
		return err
	}
	musicElapsed := time.Since(musicStart)
	musicIdx, err := alg.Indices()
	if err != nil {
		return err
	}

	directStart := time.Now()
	directRuns := 0
	direct, err := sobolidx.Estimate(func(u []float64) float64 {
		directRuns++
		y, err := abm.EvaluateGSA(space.Scale(u), modelSeed)
		if err != nil {
			panic(err) // validated config; cannot fail
		}
		return y
	}, space.Dim(), sobolidx.Options{N: directN, Clamp01: true})
	if err != nil {
		return err
	}
	directElapsed := time.Since(directStart)

	var sb strings.Builder
	sb.WriteString("Time to solution on the expensive agent-based model (§3.3)\n\n")
	rows := [][]string{
		{"MUSIC (surrogate)", fmt.Sprintf("%d", musicRuns),
			musicElapsed.Round(time.Millisecond).String()},
		{"direct Saltelli", fmt.Sprintf("%d", directRuns),
			directElapsed.Round(time.Millisecond).String()},
	}
	if err := plot.Table(&sb, []string{"Method", "Model runs", "Wall time"}, rows); err != nil {
		return err
	}
	sb.WriteString("\nFirst-order index estimates:\n")
	idxRows := [][]string{}
	for j, name := range space.Names() {
		idxRows = append(idxRows, []string{name,
			fmt.Sprintf("%.3f", musicIdx[j]), fmt.Sprintf("%.3f", direct.First[j])})
	}
	if err := plot.Table(&sb, []string{"Parameter", "MUSIC", "direct"}, idxRows); err != nil {
		return err
	}
	fmt.Fprintf(&sb, "\nspeedup %.1fx with %.1fx fewer model runs\n",
		float64(directElapsed)/float64(musicElapsed), float64(directRuns)/float64(musicRuns))
	fmt.Println(sb.String())
	return g.write("time_to_solution.txt", sb.String())
}

// utilization runs the §3.2 experiment: the same replicated MUSIC study
// driven sequentially and interleaved over one worker pool.
func (g *generator) utilization() error {
	runMode := func(interleaved bool) (*osprey.GSAResult, error) {
		p, err := osprey.New(osprey.Config{Identity: "figures", Nodes: 8})
		if err != nil {
			return nil, err
		}
		defer p.Shutdown()
		cfg := osprey.GSAConfig{
			Replicates: 6,
			Nodes:      4, WorkersPerNode: 2,
			ModelDelay: 5 * time.Millisecond,
			Seed:       6,
		}
		cfg.Music.InitialDesign = 16
		cfg.Music.Budget = 48
		if !g.quick {
			cfg.Replicates = 10
			cfg.Music.InitialDesign = 30
			cfg.Music.Budget = 100
		}
		return osprey.RunGSA(p, cfg, interleaved)
	}
	seq, err := runMode(false)
	if err != nil {
		return err
	}
	inter, err := runMode(true)
	if err != nil {
		return err
	}
	if err := sameScience(seq, inter); err != nil {
		return fmt.Errorf("utilization: sequential and interleaved results differ: %w", err)
	}
	var sb strings.Builder
	sb.WriteString("Worker-pool utilization: sequential vs interleaved MUSIC instances (§3.2)\n\n")
	rows := [][]string{
		{"sequential", seq.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", seq.Pool.UtilizationPct), fmt.Sprintf("%d", seq.Evaluations)},
		{"interleaved", inter.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", inter.Pool.UtilizationPct), fmt.Sprintf("%d", inter.Evaluations)},
	}
	if err := plot.Table(&sb, []string{"Mode", "Makespan", "Utilization", "Evaluations"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(&sb, "\nspeedup %.2fx; identical scientific results in both modes\n",
		float64(seq.Elapsed)/float64(inter.Elapsed))
	fmt.Println(sb.String())
	return g.write("utilization.txt", sb.String())
}

// sameScience returns an error naming the first difference between two
// GSA studies' results, compared bit for bit: every replicate's final
// indices and its whole convergence history. Timings and pool statistics
// are not compared.
func sameScience(a, b *osprey.GSAResult) error {
	if len(a.FinalIndices) != len(b.FinalIndices) || len(a.Histories) != len(b.Histories) {
		return fmt.Errorf("replicate counts %d/%d vs %d/%d",
			len(a.FinalIndices), len(a.Histories), len(b.FinalIndices), len(b.Histories))
	}
	for r := range a.FinalIndices {
		if err := sameBits(a.FinalIndices[r], b.FinalIndices[r]); err != nil {
			return fmt.Errorf("replicate %d final indices: %w", r, err)
		}
	}
	for r, ha := range a.Histories {
		hb := b.Histories[r]
		if len(ha) != len(hb) {
			return fmt.Errorf("replicate %d: %d vs %d snapshots", r, len(ha), len(hb))
		}
		for k := range ha {
			if ha[k].N != hb[k].N {
				return fmt.Errorf("replicate %d snapshot %d: N %d vs %d", r, k, ha[k].N, hb[k].N)
			}
			if err := sameBits(ha[k].Indices, hb[k].Indices); err != nil {
				return fmt.Errorf("replicate %d snapshot %d indices: %w", r, k, err)
			}
			if err := sameBits(ha[k].Total, hb[k].Total); err != nil {
				return fmt.Errorf("replicate %d snapshot %d total indices: %w", r, k, err)
			}
		}
	}
	return nil
}

// sameBits returns an error naming the first entry where a and b differ
// in any bit.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("entry %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

type generator struct {
	out   string
	quick bool
}

func (g *generator) write(name, content string) error {
	return os.WriteFile(filepath.Join(g.out, name), []byte(content), 0o644)
}

func (g *generator) goldstein() osprey.GoldsteinOptions {
	if g.quick {
		return osprey.GoldsteinOptions{Iterations: 300, BurnIn: 500, Thin: 2}
	}
	return osprey.GoldsteinOptions{Iterations: 1500, BurnIn: 2000, Thin: 2}
}

// table1 emits the GSA parameter ranges.
func (g *generator) table1() error {
	space := osprey.GSAParameterSpace()
	var rows [][]string
	for _, p := range space.Params {
		rows = append(rows, []string{p.Name, p.Description, fmt.Sprintf("(%g, %g)", p.Lo, p.Hi)})
	}
	var sb strings.Builder
	sb.WriteString("Table 1: MetaRVM model parameters and ranges for GSA\n\n")
	if err := plot.Table(&sb, []string{"Parameter", "Description", "Range"}, rows); err != nil {
		return err
	}
	fmt.Println(sb.String())
	return g.write("table1.txt", sb.String())
}

// figure1 runs the automated workflow once and emits the topology plus the
// AERO event trace — the executable counterpart of the Figure 1 diagram.
func (g *generator) figure1() error {
	p, err := osprey.New(osprey.Config{Identity: "figures", Nodes: 8})
	if err != nil {
		return err
	}
	defer p.Shutdown()
	wwcfg := osprey.WastewaterConfig{ScenarioDays: 120, StartDay: 80, Goldstein: g.goldstein(), Seed: 1}
	if g.quick {
		wwcfg.ScenarioDays, wwcfg.StartDay = 100, 70
	}
	wp, err := osprey.NewWastewaterPipeline(p, wwcfg)
	if err != nil {
		return err
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		return err
	}
	wp.Advance(7)
	if _, err := wp.PollAll(); err != nil {
		return err
	}

	var sb strings.Builder
	sb.WriteString("Figure 1: automated multi-source wastewater R(t) workflow\n\n")
	sb.WriteString("Registered flows (metadata service):\n")
	flows, err := p.Meta.ListFlows()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, f := range flows {
		rows = append(rows, []string{f.ID, f.Name, f.Kind.String(),
			fmt.Sprintf("%d", len(f.InputUUIDs)), fmt.Sprintf("%d", len(f.OutputUUIDs)), fmt.Sprintf("%d", f.Runs)})
	}
	if err := plot.Table(&sb, []string{"ID", "Name", "Kind", "Inputs", "Outputs", "Runs"}, rows); err != nil {
		return err
	}
	sb.WriteString("\nAERO event trace:\n")
	for _, e := range p.AERO.Events() {
		fmt.Fprintf(&sb, "  %-16s %-14s %s\n", e.Kind, e.Flow, e.Detail)
	}
	fmt.Println(sb.String())
	// The machine-generated Figure 1 diagram (render with `dot -Tpng`).
	dot, err := aero.ExportDOT(p.Meta, "Automated multi-source wastewater R(t) workflow (Figure 1)")
	if err != nil {
		return err
	}
	if err := g.write("figure1_topology.dot", dot); err != nil {
		return err
	}
	return g.write("figure1_workflow.txt", sb.String())
}

// figure2 renders the four plant R(t) panels plus the ensemble panel.
func (g *generator) figure2() error {
	p, err := osprey.New(osprey.Config{Identity: "figures", Nodes: 8})
	if err != nil {
		return err
	}
	defer p.Shutdown()
	days := 120
	start := 110
	if g.quick {
		days, start = 100, 95
	}
	wp, err := osprey.NewWastewaterPipeline(p, osprey.WastewaterConfig{
		ScenarioDays: days, StartDay: start, Goldstein: g.goldstein(), Seed: 2,
	})
	if err != nil {
		return err
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		return err
	}

	truth := wp.TruthRt()
	var sb strings.Builder
	sb.WriteString("Figure 2: R(t) estimates per plant + population-weighted ensemble\n\n")
	var charts []*plot.Chart
	appendChart := func(title string, daysIdx []int, med, lo, hi []float64) *plot.Chart {
		x := make([]float64, len(daysIdx))
		tr := make([]float64, len(daysIdx))
		for i, d := range daysIdx {
			x[i] = float64(d)
			tr[i] = truth[d]
		}
		return &plot.Chart{
			Title: title, XLabel: "day", YLabel: "R(t)",
			Series: []plot.Series{{Name: "median", X: x, Y: med}, {Name: "truth", X: x, Y: tr}},
			Band:   &plot.Band{X: x, Lower: lo, Upper: hi},
		}
	}
	summaryRows := [][]string{}
	for _, name := range wp.PlantNames() {
		est, err := wp.LatestEstimate(name)
		if err != nil {
			return err
		}
		c := appendChart("R(t) — "+name, est.Days, est.Median, est.Lower, est.Upper)
		charts = append(charts, c)
		var csv strings.Builder
		if err := c.WriteCSV(&csv); err != nil {
			return err
		}
		if err := g.write("figure2_"+slug(name)+".csv", csv.String()); err != nil {
			return err
		}
		summaryRows = append(summaryRows, []string{name,
			fmt.Sprintf("%.2f", est.Coverage(truth, 14, len(est.Median)-7)),
			fmt.Sprintf("%.3f", est.MeanAbsError(truth, 14, len(est.Median)-7)),
			fmt.Sprintf("%.3f", est.BandWidth(14, len(est.Median)-7))})
	}
	ens, err := wp.LatestEnsemble()
	if err != nil {
		return err
	}
	ec := appendChart("R(t) — population-weighted ensemble", ens.Days, ens.Median, ens.Lower, ens.Upper)
	charts = append(charts, ec)
	var csv strings.Builder
	if err := ec.WriteCSV(&csv); err != nil {
		return err
	}
	if err := g.write("figure2_ensemble.csv", csv.String()); err != nil {
		return err
	}
	summaryRows = append(summaryRows, []string{"ensemble",
		fmt.Sprintf("%.2f", ens.Coverage(truth, 14, len(ens.Median)-7)),
		fmt.Sprintf("%.3f", ens.MeanAbsError(truth, 14, len(ens.Median)-7)),
		fmt.Sprintf("%.3f", ens.BandWidth(14, len(ens.Median)-7))})

	if err := plot.Facets(&sb, charts); err != nil {
		return err
	}
	sb.WriteString("\nValidation against the synthetic ground truth (days 14..end-7):\n")
	if err := plot.Table(&sb, []string{"Source", "95% coverage", "MAE", "band width"}, summaryRows); err != nil {
		return err
	}
	fmt.Println(sb.String())
	return g.write("figure2_panels.txt", sb.String())
}

// figure3 emits the compartment graph and a reference trajectory.
func (g *generator) figure3() error {
	var sb strings.Builder
	sb.WriteString("Figure 3: MetaRVM compartments and transitions\n\n")
	var rows [][]string
	for _, tr := range metarvm.Transitions() {
		rows = append(rows, []string{tr.From.String(), tr.To.String(), tr.Label})
	}
	if err := plot.Table(&sb, []string{"From", "To", "Parameters"}, rows); err != nil {
		return err
	}

	cfg := osprey.DefaultMetaRVMConfig()
	res, err := osprey.RunMetaRVM(cfg)
	if err != nil {
		return err
	}
	x := make([]float64, len(res.Days))
	hosp := make([]float64, len(res.Days))
	inf := make([]float64, len(res.Days))
	for i, d := range res.Days {
		x[i] = float64(d.Day)
		hosp[i] = float64(d.Total(metarvm.H))
		inf[i] = float64(d.Total(metarvm.Ia) + d.Total(metarvm.Ip) + d.Total(metarvm.Is))
	}
	c := &plot.Chart{
		Title: "Reference trajectory (nominal parameters)", XLabel: "day", YLabel: "count",
		Series: []plot.Series{{Name: "infectious", X: x, Y: inf}, {Name: "hospitalized", X: x, Y: hosp}},
	}
	sb.WriteString("\n")
	if err := c.Render(&sb); err != nil {
		return err
	}
	fmt.Fprintf(&sb, "\nQoI (cumulative hospitalizations, day %d): %d\n", cfg.Days, res.CumHospitalizations)
	fmt.Println(sb.String())
	return g.write("figure3_metarvm.txt", sb.String())
}

// figure4 produces the MUSIC vs PCE convergence curves at a fixed seed.
func (g *generator) figure4() error {
	space := osprey.GSAParameterSpace()
	budget := 300
	initial := 30
	if g.quick {
		budget, initial = 80, 20
	}
	const modelSeed = 11

	alg, err := music.New(music.Options{
		Space: space, InitialDesign: initial, Budget: budget, Seed: 4,
	})
	if err != nil {
		return err
	}
	if err := music.RunSequential(alg, func(x []float64) (float64, error) {
		return metarvm.EvaluateGSA(x, modelSeed)
	}); err != nil {
		return err
	}
	musicHist := alg.History()

	var sizes []int
	for n := 56; n <= budget; n += 4 {
		sizes = append(sizes, n)
	}
	pceCmp, err := osprey.RunPCEComparison(space, 4, modelSeed, sizes, 3)
	if err != nil {
		return err
	}

	var sb strings.Builder
	sb.WriteString("Figure 4: first-order Sobol index convergence, MUSIC vs PCE (fixed seed)\n\n")
	var charts []*plot.Chart
	for j, pname := range space.Names() {
		mx := make([]float64, len(musicHist))
		my := make([]float64, len(musicHist))
		for i, snap := range musicHist {
			mx[i] = float64(snap.N)
			my[i] = snap.Indices[j]
		}
		px := make([]float64, len(pceCmp.Sizes))
		py := make([]float64, len(pceCmp.Sizes))
		for i, n := range pceCmp.Sizes {
			px[i] = float64(n)
			py[i] = clamp01(pceCmp.Indices[i][j])
		}
		c := &plot.Chart{
			Title: "S1(" + pname + ")", XLabel: "samples", YLabel: "first-order index",
			Series: []plot.Series{{Name: "music", X: mx, Y: my}, {Name: "pce", X: px, Y: py}},
		}
		charts = append(charts, c)
		var csv strings.Builder
		if err := c.WriteCSV(&csv); err != nil {
			return err
		}
		if err := g.write("figure4_"+pname+".csv", csv.String()); err != nil {
			return err
		}
	}
	if err := plot.Facets(&sb, charts); err != nil {
		return err
	}

	// Reference indices: a direct pick–freeze Saltelli run on the
	// simulator itself at the same fixed seed, with a much larger budget
	// than either surrogate method gets. Convergence is then measured
	// against this common target rather than each method's own endpoint.
	refN := 1024
	if g.quick {
		refN = 256
	}
	ref, err := sobolidx.Estimate(func(u []float64) float64 {
		y, err := metarvm.EvaluateGSA(space.Scale(u), modelSeed)
		if err != nil {
			panic(err) // deterministic config; cannot fail after validation
		}
		return y
	}, space.Dim(), sobolidx.Options{N: refN, Clamp01: true})
	if err != nil {
		return err
	}

	fmt.Fprintf(&sb, "\nReference first-order indices (direct Saltelli on the simulator, %d base samples,\n%d model runs — the budget surrogates are meant to avoid):\n", refN, refN*(space.Dim()+2))
	refRow := [][]string{}
	for j, pname := range space.Names() {
		refRow = append(refRow, []string{pname, fmt.Sprintf("%.3f", ref.First[j])})
	}
	if err := plot.Table(&sb, []string{"Parameter", "S1 (reference)"}, refRow); err != nil {
		return err
	}

	sb.WriteString("\nConvergence to the reference (first N after which the estimate stays within ±0.05):\n")
	rows := [][]string{}
	for j, pname := range space.Names() {
		rows = append(rows, []string{
			pname,
			fmtStab(stabilizationVsRef(musicHist, j, ref.First[j])),
			fmtStab(pceStabilizationVsRef(pceCmp, j, ref.First[j])),
		})
	}
	if err := plot.Table(&sb, []string{"Parameter", "MUSIC", "PCE"}, rows); err != nil {
		return err
	}
	fmt.Println(sb.String())
	return g.write("figure4_convergence.txt", sb.String())
}

// figure5 runs the replicated study: 10 MUSIC instances, one per MetaRVM
// seed, interleaved over one EMEWS pool.
func (g *generator) figure5() error {
	p, err := osprey.New(osprey.Config{Identity: "figures", Nodes: 8})
	if err != nil {
		return err
	}
	defer p.Shutdown()
	cfg := osprey.GSAConfig{Replicates: 10, Seed: 5}
	cfg.Music.Budget = 300
	cfg.Music.InitialDesign = 30
	if g.quick {
		cfg.Replicates = 10
		cfg.Music.Budget = 70
		cfg.Music.InitialDesign = 20
	}
	res, err := osprey.RunGSA(p, cfg, true)
	if err != nil {
		return err
	}

	space := osprey.GSAParameterSpace()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: first-order Sobol indices across %d stochastic replicates\n", cfg.Replicates)
	fmt.Fprintf(&sb, "pool utilization %.1f%%, makespan %v, %d model evaluations\n\n",
		res.Pool.UtilizationPct, res.Elapsed.Round(time.Millisecond), res.Evaluations)
	var charts []*plot.Chart
	for j, pname := range space.Names() {
		c := &plot.Chart{Title: "S1(" + pname + ") by replicate", XLabel: "samples", YLabel: "index"}
		for r, hist := range res.Histories {
			x := make([]float64, len(hist))
			y := make([]float64, len(hist))
			for i, snap := range hist {
				x[i] = float64(snap.N)
				y[i] = snap.Indices[j]
			}
			c.Series = append(c.Series, plot.Series{Name: fmt.Sprintf("rep%d", r), X: x, Y: y})
		}
		charts = append(charts, c)
		var csv strings.Builder
		if err := c.WriteCSV(&csv); err != nil {
			return err
		}
		if err := g.write("figure5_"+pname+".csv", csv.String()); err != nil {
			return err
		}
	}
	if err := plot.Facets(&sb, charts); err != nil {
		return err
	}

	sb.WriteString("\nFinal indices per replicate:\n")
	headers := append([]string{"replicate"}, space.Names()...)
	rows := [][]string{}
	for r, idx := range res.FinalIndices {
		row := []string{fmt.Sprintf("%d", r)}
		for _, v := range idx {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	if err := plot.Table(&sb, headers, rows); err != nil {
		return err
	}
	fmt.Println(sb.String())
	return g.write("figure5_replicates.txt", sb.String())
}

func slug(name string) string {
	s := strings.ToLower(name)
	s = strings.ReplaceAll(s, "'", "")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// stabilizationVsRef returns the first N after which the MUSIC curve stays
// within 0.05 of the reference value, or -1 if it never settles.
func stabilizationVsRef(hist []music.Snapshot, j int, ref float64) int {
	stable := -1
	for i := len(hist) - 1; i >= 0; i-- {
		if abs(hist[i].Indices[j]-ref) > 0.05 {
			break
		}
		stable = hist[i].N
	}
	return stable
}

func pceStabilizationVsRef(cmp *osprey.PCEComparison, j int, ref float64) int {
	stable := -1
	for i := len(cmp.Sizes) - 1; i >= 0; i-- {
		if abs(clamp01(cmp.Indices[i][j])-ref) > 0.05 {
			break
		}
		stable = cmp.Sizes[i]
	}
	return stable
}

func fmtStab(n int) string {
	if n < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", n)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
