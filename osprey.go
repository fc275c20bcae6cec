// Package osprey is the public API of the OSPREY reproduction: the Open
// Science Platform for Robust Epidemic Analysis, rebuilt in pure Go from
// the ICPP 2025 paper "Automation and Collaboration in Complex
// Epidemiological Workflows with OSPREY".
//
// The platform wires together four substrates:
//
//   - A simulated research fabric (Globus-style auth, storage endpoints
//     with collections and ACLs, compute endpoints, timers, flows).
//   - A batch scheduler simulating the HPC clusters the paper runs on.
//   - AERO, the event-driven data automation platform (§2): ingestion
//     flows that poll sources and version data by checksum, and analysis
//     flows triggered by data updates.
//   - EMEWS, the model-exploration substrate (§3): a task database with
//     Futures and worker pools started through the scheduler.
//
// On top of these it implements the paper's two use cases:
//
//   - NewWastewaterPipeline assembles the automated multi-source
//     wastewater R(t) estimation workflow (Figures 1-2): four plant feeds
//     are polled, validated, analyzed with the Goldstein semi-parametric
//     Bayesian estimator on the batch tier, and aggregated into a
//     population-weighted ensemble when all four estimates are fresh.
//   - RunGSA executes the replicated MUSIC active-learning global
//     sensitivity analysis of the MetaRVM metapopulation model
//     (Figures 4-5, Table 1), with instances interleaved over one EMEWS
//     worker pool; RunPCEComparison produces the one-shot PCE baseline.
//
// Quickstart:
//
//	p, err := osprey.New(osprey.Config{Identity: "alice"})
//	if err != nil { ... }
//	defer p.Shutdown()
//	wp, err := osprey.NewWastewaterPipeline(p, osprey.WastewaterConfig{})
//	if err != nil { ... }
//	defer wp.Close()
//	updates, err := wp.PollAll() // one simulated daily cycle
//
// See the examples/ directory for complete programs and DESIGN.md for the
// substrate inventory and paper-experiment index.
package osprey

import (
	"osprey/internal/abm"
	"osprey/internal/core"
	"osprey/internal/design"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/rt"
	"osprey/internal/wastewater"
)

// Config describes an OSPREY deployment (identity, cluster size, storage
// collection, optional remote metadata service).
type Config = core.Config

// Platform is a fully wired OSPREY deployment.
type Platform = core.Platform

// New assembles a platform.
func New(cfg Config) (*Platform, error) { return core.New(cfg) }

// WastewaterConfig parameterizes the use case 1 pipeline.
type WastewaterConfig = core.WastewaterConfig

// WastewaterPipeline is the automated multi-source R(t) workflow of
// Figure 1.
type WastewaterPipeline = core.WastewaterPipeline

// NewWastewaterPipeline builds and registers the full Figure 1 workflow.
func NewWastewaterPipeline(p *Platform, cfg WastewaterConfig) (*WastewaterPipeline, error) {
	return core.NewWastewaterPipeline(p, cfg)
}

// GSAConfig parameterizes the use case 2 study.
type GSAConfig = core.GSAConfig

// GSAResult is the outcome of a replicated GSA study.
type GSAResult = core.GSAResult

// RunGSA executes the replicated MUSIC study, interleaved (the paper's
// design) or sequential (the utilization ablation).
func RunGSA(p *Platform, cfg GSAConfig, interleaved bool) (*GSAResult, error) {
	return core.RunGSA(p, cfg, interleaved)
}

// PCEComparison holds the one-shot PCE baseline curves of Figure 4.
type PCEComparison = core.PCEComparison

// RunPCEComparison fits PCE surrogates on nested LHS designs of increasing
// size against a fixed-seed MetaRVM response.
func RunPCEComparison(space *design.Space, seed, modelSeed uint64, sizes []int, degree int) (*PCEComparison, error) {
	return core.RunPCEComparison(space, seed, modelSeed, sizes, degree)
}

// GoldsteinOptions configures the wastewater R(t) estimator.
type GoldsteinOptions = rt.GoldsteinOptions

// RtEstimate is a per-plant posterior R(t) summary.
type RtEstimate = rt.Estimate

// EnsembleEstimate is the population-weighted aggregate R(t).
type EnsembleEstimate = rt.EnsembleEstimate

// MusicOptions configures a MUSIC instance.
type MusicOptions = music.Options

// MusicSnapshot is one point of an index-convergence curve.
type MusicSnapshot = music.Snapshot

// Plant describes a water reclamation plant feed.
type Plant = wastewater.Plant

// ChicagoPlants returns the paper's four plants.
func ChicagoPlants() []Plant { return wastewater.ChicagoPlants() }

// MetaRVMConfig specifies a MetaRVM simulation run.
type MetaRVMConfig = metarvm.Config

// MetaRVMParams holds the MetaRVM rate and proportion parameters.
type MetaRVMParams = metarvm.Params

// RunMetaRVM simulates the MetaRVM model.
func RunMetaRVM(cfg MetaRVMConfig) (*metarvm.Result, error) { return metarvm.Run(cfg) }

// DefaultMetaRVMConfig returns the four-group, 90-day GSA configuration.
func DefaultMetaRVMConfig() MetaRVMConfig { return metarvm.DefaultConfig() }

// GSAParameterSpace returns Table 1: the five uncertain MetaRVM parameters
// and their ranges.
func GSAParameterSpace() *design.Space { return metarvm.GSAParameterSpace() }

// ABMConfig specifies an agent-based simulation run.
type ABMConfig = abm.Config

// RunABM simulates the agent-based epidemic model — the expensive
// counterpart of MetaRVM, sharing its disease states and Table 1
// parameterization.
func RunABM(cfg ABMConfig) (*abm.Result, error) { return abm.Run(cfg) }
