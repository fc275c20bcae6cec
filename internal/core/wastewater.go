package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"osprey/internal/aero"
	"osprey/internal/parallel"
	"osprey/internal/rng"
	"osprey/internal/rt"
	"osprey/internal/wastewater"
)

// WastewaterConfig parameterizes the Figure 1 workflow.
type WastewaterConfig struct {
	// ScenarioDays is the full synthetic epidemic length (default 120).
	ScenarioDays int
	// StartDay is how much of the feed is visible at pipeline start
	// (default 60).
	StartDay int
	// Goldstein configures the per-plant estimator (iterations are the
	// knob that trades accuracy for speed).
	Goldstein rt.GoldsteinOptions
	// PollInterval, when nonzero, schedules automatic polling timers; the
	// default (0) leaves polling to explicit PollAll calls, which is what
	// simulations and tests want.
	PollInterval time.Duration
	// Seed drives the synthetic data generation.
	Seed uint64
}

// plantRig holds one plant's feed and flows.
type plantRig struct {
	plant     wastewater.Plant
	series    *wastewater.Series
	source    *wastewater.LiveSource
	ingestion *aero.IngestionFlow
	analysis  *aero.AnalysisFlow
}

// WastewaterPipeline is the assembled multi-source R(t) workflow: four
// ingestion flows, four Goldstein analysis flows on the batch tier, and one
// population-weighted aggregation flow on the login tier, all chained by
// AERO data-update triggers exactly as in Figure 1.
type WastewaterPipeline struct {
	Platform *Platform
	cfg      WastewaterConfig

	server   *http.Server
	listener net.Listener

	mu     sync.Mutex
	plants []*plantRig
	// Aggregate is the ensemble flow (TriggerAll over the four estimates).
	Aggregate *aero.AnalysisFlow
	truth     []float64
}

// estimateVersion is the first byte of an encoded estimate.
const estimateVersion = 1

// estimateHeader is the size of the fixed fields: the version byte and the
// summary length, then after the summary the draw count and days.
const estimateHeader = 1 + 4 + 4 + 4

// encodeEstimate serializes one plant's estimate as the "estimate" output
// of its analysis flow — the stand-in for the paper's "binary R datatable
// objects". The layout (DESIGN.md, "The estimate output") is:
//
//	version      1 byte, estimateVersion
//	summaryLen   uint32 LE
//	summary      summaryLen bytes: the Estimate as JSON, Draws omitted
//	nDraws, days uint32 LE each; days equals len(Days)
//	draws        nDraws*days float64 LE, draw-major
//
// The draws are the bulk of the bytes and stay exact as raw bits; the
// aggregate reads them without parsing text.
func encodeEstimate(est *rt.Estimate) ([]byte, error) {
	days := len(est.Days)
	if days == 0 && len(est.Draws) > 0 {
		return nil, errors.New("core: estimate has draws but no days")
	}
	for _, row := range est.Draws {
		if len(row) != days {
			return nil, errors.New("core: estimate draw length differs from its days")
		}
	}
	summary := *est
	summary.Draws = nil
	js, err := json.Marshal(&summary)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, estimateHeader+len(js)+8*len(est.Draws)*days)
	buf = append(buf, estimateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(js)))
	buf = append(buf, js...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(est.Draws)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(days))
	for _, row := range est.Draws {
		for _, x := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf, nil
}

// decodeEstimate is encodeEstimate's inverse. It accepts exactly the bytes
// encodeEstimate produces: the summary must be in its canonical JSON form,
// the counts must match the buffer, and nothing may follow the draws.
func decodeEstimate(b []byte) (*rt.Estimate, error) {
	if len(b) < 1+4 {
		return nil, errors.New("core: estimate truncated")
	}
	if b[0] != estimateVersion {
		return nil, fmt.Errorf("core: estimate version %d, want %d", b[0], estimateVersion)
	}
	n := uint64(binary.LittleEndian.Uint32(b[1:]))
	b = b[5:]
	if n > uint64(len(b)) {
		return nil, errors.New("core: estimate summary truncated")
	}
	js := b[:n]
	b = b[n:]
	est := new(rt.Estimate)
	if err := json.Unmarshal(js, est); err != nil {
		return nil, fmt.Errorf("core: estimate summary: %w", err)
	}
	if est.Draws != nil {
		return nil, errors.New("core: estimate summary carries draws")
	}
	if canon, err := json.Marshal(est); err != nil || !bytes.Equal(canon, js) {
		return nil, errors.New("core: estimate summary not in canonical form")
	}
	if len(b) < 8 {
		return nil, errors.New("core: estimate draw header truncated")
	}
	nDraws := uint64(binary.LittleEndian.Uint32(b))
	days := uint64(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if days != uint64(len(est.Days)) {
		return nil, fmt.Errorf("core: estimate draws span %d days, summary %d", days, len(est.Days))
	}
	// Both counts are below 2^32, so their product cannot overflow.
	if (days == 0 && nDraws > 0) || len(b)%8 != 0 || nDraws*days != uint64(len(b)/8) {
		return nil, fmt.Errorf("core: estimate holds %d draw bytes, want %d×%d float64", len(b), nDraws, days)
	}
	if nDraws == 0 {
		return est, nil
	}
	flat := make([]float64, nDraws*days)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	est.Draws = make([][]float64, nDraws)
	for k := range est.Draws {
		est.Draws[k] = flat[uint64(k)*days : uint64(k+1)*days : uint64(k+1)*days]
	}
	return est, nil
}

// ensembleOutput is the aggregate flow's product.
type ensembleOutput struct {
	Ensemble *rt.EnsembleEstimate `json:"ensemble"`
}

// NewWastewaterPipeline builds and registers the full workflow against the
// platform. It starts a real local HTTP server for the simulated
// surveillance feeds.
func NewWastewaterPipeline(p *Platform, cfg WastewaterConfig) (*WastewaterPipeline, error) {
	if cfg.ScenarioDays <= 0 {
		cfg.ScenarioDays = 120
	}
	if cfg.StartDay <= 0 {
		cfg.StartDay = 60
	}
	if cfg.StartDay > cfg.ScenarioDays {
		return nil, errors.New("core: StartDay beyond scenario end")
	}

	sc := wastewater.DefaultScenario(cfg.ScenarioDays)
	root := rng.New(cfg.Seed)
	wp := &WastewaterPipeline{Platform: p, cfg: cfg, truth: append([]float64(nil), sc.Rt...)}

	// One HTTP mux serves every plant's feed, as the IWSS portal would.
	mux := http.NewServeMux()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wp.listener = ln
	wp.server = &http.Server{Handler: mux}
	go wp.server.Serve(ln)
	baseURL := "http://" + ln.Addr().String()

	// The validation/transformation function: parse, run the data-quality
	// screen (drop assay failures and isolated spikes, flag gaps), and
	// re-emit the cleaned CSV with the audit report as comment lines so
	// the quality decision travels with the data.
	transformID, err := p.LoginCompute.RegisterFunction(p.Token.ID, "ww-validate",
		func(ctx context.Context, body []byte) ([]byte, error) {
			obs, err := wastewater.ParseCSV(strings.NewReader(string(body)))
			if err != nil {
				return nil, fmt.Errorf("validation failed: %w", err)
			}
			cleaned, report := wastewater.CleanObservations(obs, wastewater.QualityOptions{})
			var sb strings.Builder
			sb.WriteString("day,concentration\n")
			fmt.Fprintf(&sb, "# quality: input=%d kept=%d dropped=%d\n",
				report.Input, report.Kept, report.Dropped)
			for _, iss := range report.Issues {
				fmt.Fprintf(&sb, "# quality-issue: day=%d kind=%s %s\n", iss.Day, iss.Kind, iss.Detail)
			}
			for _, o := range cleaned {
				fmt.Fprintf(&sb, "%d,%.6g\n", o.Day, o.Concentration)
			}
			return []byte(sb.String()), nil
		})
	if err != nil {
		return nil, err
	}

	var estimateUUIDs []string
	for i, plant := range wastewater.ChicagoPlants() {
		series := wastewater.Generate(plant, sc, root.Split("plant/"+plant.Name))
		source := wastewater.NewLiveSource(series, cfg.StartDay)
		slug := plantSlug(plant.Name)
		mux.Handle("/"+slug+".csv", source)

		ing, err := p.AERO.RegisterIngestion(aero.IngestionSpec{
			Name:         slug,
			URL:          baseURL + "/" + slug + ".csv",
			PollInterval: cfg.PollInterval,
			Compute:      p.LoginCompute,
			TransformID:  transformID,
			Storage:      p.StorageTarget(),
		})
		if err != nil {
			wp.Close()
			return nil, err
		}

		// The R(t) analysis harness runs on the batch tier: this is the
		// "computationally expensive" step the paper queues through PBS.
		plantCopy := plant
		gopt := cfg.Goldstein
		gopt.Seed = cfg.Seed + uint64(1000+i)
		analyzeID, err := p.BatchCompute.RegisterFunction(p.Token.ID, "rt-"+slug,
			func(ctx context.Context, payload []byte) ([]byte, error) {
				return runGoldsteinHarness(payload, plantCopy, gopt)
			})
		if err != nil {
			wp.Close()
			return nil, err
		}
		an, err := p.AERO.RegisterAnalysis(aero.AnalysisSpec{
			Name:        "rt-" + slug,
			InputUUIDs:  []string{ing.OutputUUID},
			Policy:      aero.TriggerAny,
			Compute:     p.BatchCompute,
			AnalyzeID:   analyzeID,
			OutputNames: []string{"table", "estimate", "plot"},
			Storage:     p.StorageTarget(),
		})
		if err != nil {
			wp.Close()
			return nil, err
		}
		estimateUUIDs = append(estimateUUIDs, an.OutputUUIDs[1])
		wp.plants = append(wp.plants, &plantRig{
			plant: plant, series: series, source: source,
			ingestion: ing, analysis: an,
		})
	}

	// Aggregate flow: population-weighted ensemble, triggered only when
	// all four estimates have updated, running on the cheap login tier.
	aggID, err := p.LoginCompute.RegisterFunction(p.Token.ID, "rt-aggregate", runEnsembleHarness)
	if err != nil {
		wp.Close()
		return nil, err
	}
	agg, err := p.AERO.RegisterAnalysis(aero.AnalysisSpec{
		Name:        "rt-aggregate",
		InputUUIDs:  estimateUUIDs,
		Policy:      aero.TriggerAll,
		Compute:     p.LoginCompute,
		AnalyzeID:   aggID,
		OutputNames: []string{"ensemble", "plot"},
		Storage:     p.StorageTarget(),
	})
	if err != nil {
		wp.Close()
		return nil, err
	}
	wp.Aggregate = agg
	return wp, nil
}

func plantSlug(name string) string {
	s := strings.ToLower(name)
	s = strings.ReplaceAll(s, "'", "")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

// runGoldsteinHarness is the analysis function: CSV in, three named
// outputs (tabular summary, full estimate object, plot) out — the Go
// equivalent of the paper's Python harness wrapping Julia estimation and R
// plotting.
func runGoldsteinHarness(payload []byte, plant wastewater.Plant, gopt rt.GoldsteinOptions) ([]byte, error) {
	var req aero.AnalysisRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	if len(req.Inputs) != 1 {
		return nil, fmt.Errorf("rt harness: want 1 input, got %d", len(req.Inputs))
	}
	obs, err := wastewater.ParseCSV(strings.NewReader(string(req.Inputs[0].Data)))
	if err != nil {
		return nil, err
	}
	if len(obs) == 0 {
		return nil, errors.New("rt harness: empty observation set")
	}
	days := obs[len(obs)-1].Day + 1
	est, err := rt.EstimateGoldstein(obs, plant, days, gopt)
	if err != nil {
		return nil, err
	}

	var table strings.Builder
	table.WriteString("day,median,lower,upper\n")
	for d := range est.Days {
		fmt.Fprintf(&table, "%d,%.4f,%.4f,%.4f\n", d, est.Median[d], est.Lower[d], est.Upper[d])
	}
	estBytes, err := encodeEstimate(est)
	if err != nil {
		return nil, err
	}
	return aero.EncodeOutputs(map[string][]byte{
		"table":    []byte(table.String()),
		"estimate": estBytes,
		"plot":     []byte(renderEstimatePlot(plant.Name, est)),
	})
}

// runEnsembleHarness aggregates the four plant estimates into the
// population-weighted ensemble (Figure 2, bottom panel).
func runEnsembleHarness(_ context.Context, payload []byte) ([]byte, error) {
	var req aero.AnalysisRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	var ests []*rt.Estimate
	for _, in := range req.Inputs {
		est, err := decodeEstimate(in.Data)
		if err != nil {
			return nil, fmt.Errorf("aggregate: decode input %s: %w", in.UUID, err)
		}
		ests = append(ests, est)
	}
	ens, err := rt.EnsembleWeighted(ests, nil)
	if err != nil {
		return nil, err
	}
	ensJSON, err := json.Marshal(ensembleOutput{Ensemble: ens})
	if err != nil {
		return nil, err
	}
	return aero.EncodeOutputs(map[string][]byte{
		"ensemble": ensJSON,
		"plot":     []byte(renderEnsemblePlot(ens)),
	})
}

// PollAll polls every ingestion flow once and waits for all triggered
// analyses (including the aggregate) to finish — one simulated "daily"
// cycle of the automated workflow. It reports how many feeds had updates.
//
// The per-plant polls (fetch + validation transform) run concurrently
// across the worker pool; the triggered Goldstein analyses were already
// dispatched asynchronously by AERO and are joined by WaitIdle. Update
// counts and errors are reduced in plant order, so the reported result is
// independent of poll completion order.
func (wp *WastewaterPipeline) PollAll() (int, error) {
	ups := make([]bool, len(wp.plants))
	errs := make([]error, len(wp.plants))
	parallel.For(len(wp.plants), func(i int) {
		ups[i], errs[i] = wp.plants[i].ingestion.Poll()
	})
	updates := 0
	for i := range wp.plants {
		if errs[i] != nil {
			return updates, errs[i]
		}
		if ups[i] {
			updates++
		}
	}
	wp.Platform.AERO.WaitIdle()
	return updates, nil
}

// Advance moves every plant's feed forward n simulated days.
func (wp *WastewaterPipeline) Advance(days int) {
	for _, rig := range wp.plants {
		rig.source.Advance(days)
	}
}

// TruthRt returns the shared ground-truth R(t) of the scenario.
func (wp *WastewaterPipeline) TruthRt() []float64 {
	return append([]float64(nil), wp.truth...)
}

// PlantNames lists the configured plants in order.
func (wp *WastewaterPipeline) PlantNames() []string {
	var out []string
	for _, rig := range wp.plants {
		out = append(out, rig.plant.Name)
	}
	return out
}

// PlantFlow returns the ingestion and analysis flows for a plant.
func (wp *WastewaterPipeline) PlantFlow(name string) (*aero.IngestionFlow, *aero.AnalysisFlow, error) {
	for _, rig := range wp.plants {
		if rig.plant.Name == name {
			return rig.ingestion, rig.analysis, nil
		}
	}
	return nil, nil, fmt.Errorf("core: unknown plant %q", name)
}

// LatestEstimate fetches and decodes a plant's most recent R(t) estimate
// from storage.
func (wp *WastewaterPipeline) LatestEstimate(name string) (*rt.Estimate, error) {
	for _, rig := range wp.plants {
		if rig.plant.Name != name {
			continue
		}
		data, _, err := wp.Platform.AERO.FetchLatest(rig.analysis.OutputUUIDs[1], wp.Platform.Storage)
		if err != nil {
			return nil, err
		}
		return decodeEstimate(data)
	}
	return nil, fmt.Errorf("core: unknown plant %q", name)
}

// LatestEnsemble fetches and decodes the most recent aggregate estimate.
func (wp *WastewaterPipeline) LatestEnsemble() (*rt.EnsembleEstimate, error) {
	data, _, err := wp.Platform.AERO.FetchLatest(wp.Aggregate.OutputUUIDs[0], wp.Platform.Storage)
	if err != nil {
		return nil, err
	}
	var out ensembleOutput
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out.Ensemble, nil
}

// LatestPlots fetches the rendered per-plant and ensemble ASCII plots.
func (wp *WastewaterPipeline) LatestPlots() (map[string]string, error) {
	out := map[string]string{}
	for _, rig := range wp.plants {
		data, _, err := wp.Platform.AERO.FetchLatest(rig.analysis.OutputUUIDs[2], wp.Platform.Storage)
		if err != nil {
			return nil, err
		}
		out[rig.plant.Name] = string(data)
	}
	data, _, err := wp.Platform.AERO.FetchLatest(wp.Aggregate.OutputUUIDs[1], wp.Platform.Storage)
	if err != nil {
		return nil, err
	}
	out["ensemble"] = string(data)
	return out, nil
}

// Close stops the feed HTTP server.
func (wp *WastewaterPipeline) Close() {
	if wp.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = wp.server.Shutdown(ctx)
	}
}
