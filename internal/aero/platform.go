package aero

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"osprey/internal/globus"
	"osprey/internal/obs"
)

// TriggerPolicy selects when a multi-input analysis flow fires.
type TriggerPolicy int

const (
	// TriggerAny fires whenever any registered input updates.
	TriggerAny TriggerPolicy = iota
	// TriggerAll fires only once every registered input has updated since
	// the flow's last run — the policy the paper's aggregate R(t) step
	// uses ("when all of those four individual R(t) analyses have
	// produced new data").
	TriggerAll
)

func (p TriggerPolicy) String() string {
	if p == TriggerAll {
		return "all"
	}
	return "any"
}

// Event is one entry of the platform's observable activity log.
type Event struct {
	Time   time.Time
	Kind   string // "ingest.nochange" | "ingest.update" | "analysis.run" | "analysis.error" | "meta.error" | ...
	Flow   string
	Detail string
}

// Platform wires the metadata service to the user's own storage and compute
// (the "bring your own storage and compute" design of §2.2).
type Platform struct {
	Meta     Metadata
	Transfer *globus.TransferService
	Timers   *globus.TimerService

	identity string
	tokenID  string

	mu       sync.Mutex
	analyses []*AnalysisFlow
	// events is a capped ring: evHead is the slot the next overwrite takes
	// once len(events) == evCap, evDropped counts overwritten entries. A
	// long-running daemon logs events forever; the ring bounds the memory.
	events     []Event
	evHead     int
	evCap      int
	evDropped  int64
	wg         sync.WaitGroup
	httpClient *http.Client
}

// DefaultEventBuffer is the event-ring capacity when Config.EventBuffer is 0.
const DefaultEventBuffer = 4096

// Config assembles a Platform.
type Config struct {
	Meta     Metadata
	Transfer *globus.TransferService
	Timers   *globus.TimerService
	Identity string
	TokenID  string
	// HTTPClient is used by ingestion polls (default http.DefaultClient).
	HTTPClient *http.Client
	// EventBuffer caps the in-memory activity log (default
	// DefaultEventBuffer); the oldest events are dropped past the cap.
	EventBuffer int
}

// NewPlatform validates the configuration and returns a platform.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Meta == nil {
		return nil, errors.New("aero: Config.Meta is required")
	}
	if cfg.Identity == "" {
		return nil, errors.New("aero: Config.Identity is required")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	evCap := cfg.EventBuffer
	if evCap <= 0 {
		evCap = DefaultEventBuffer
	}
	return &Platform{
		Meta:       cfg.Meta,
		Transfer:   cfg.Transfer,
		Timers:     cfg.Timers,
		identity:   cfg.Identity,
		tokenID:    cfg.TokenID,
		httpClient: hc,
		evCap:      evCap,
	}, nil
}

func (p *Platform) logEvent(kind, flow, detail string) {
	mEventsLogged.Inc()
	ev := Event{Time: time.Now(), Kind: kind, Flow: flow, Detail: detail}
	p.mu.Lock()
	if len(p.events) < p.evCap {
		p.events = append(p.events, ev)
	} else {
		p.events[p.evHead] = ev
		p.evHead = (p.evHead + 1) % p.evCap
		p.evDropped++
		mEventsDropped.Inc()
	}
	p.mu.Unlock()
}

// metaError records a failed provenance or run-accounting write. The output
// version it describes is already committed, so the flow carries on: a
// retry would append a duplicate version. The failure is counted and
// logged instead of discarded.
func (p *Platform) metaError(flow string, err error) {
	if err != nil {
		mFlowMetaErrors.Inc()
		p.logEvent("meta.error", flow, err.Error())
	}
}

// Events returns a copy of the activity log, oldest first. Once the ring
// is full it holds the newest EventBuffer events.
func (p *Platform) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Event, 0, len(p.events))
	out = append(out, p.events[p.evHead:]...)
	return append(out, p.events[:p.evHead]...)
}

// EventsDropped reports how many events the capped ring has overwritten.
func (p *Platform) EventsDropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evDropped
}

// WaitIdle blocks until all asynchronously dispatched analysis runs finish.
func (p *Platform) WaitIdle() { p.wg.Wait() }

// StorageTarget names the collection where a flow stores its artifacts.
type StorageTarget struct {
	Endpoint   *globus.Endpoint
	Collection string
}

func (t StorageTarget) valid() bool { return t.Endpoint != nil && t.Collection != "" }

// IngestionSpec registers a polling data source (paper §2.2: "a user
// specifies the polling frequency, a URL from which to retrieve the data, a
// function to run on the data ... and a Globus Compute endpoint where the
// function will run").
type IngestionSpec struct {
	Name string
	// URL is polled for updates; any HTTP source works, including the
	// simulated wastewater feed.
	URL string
	// PollInterval drives an automatic timer; 0 means manual Poll only.
	PollInterval time.Duration
	// Compute runs the validation/transformation function.
	Compute *globus.ComputeEndpoint
	// TransformID is the registered function to apply to fetched data.
	TransformID string
	// Storage receives both raw and transformed artifacts.
	Storage StorageTarget
}

// IngestionFlow is a registered ingestion pipeline. RawUUID identifies the
// fetched source data; OutputUUID identifies the transformed product that
// analysis flows can subscribe to.
type IngestionFlow struct {
	ID         string
	Name       string
	RawUUID    string
	OutputUUID string

	platform *Platform
	spec     IngestionSpec
	timer    *globus.Timer

	mu sync.Mutex // serializes polls
}

// RegisterIngestion creates the metadata identities and (optionally) the
// polling timer for an ingestion flow, returning the flow handle whose
// OutputUUID downstream analyses subscribe to.
func (p *Platform) RegisterIngestion(spec IngestionSpec) (*IngestionFlow, error) {
	if spec.Name == "" || spec.URL == "" {
		return nil, errors.New("aero: ingestion needs Name and URL")
	}
	if spec.Compute == nil || spec.TransformID == "" {
		return nil, errors.New("aero: ingestion needs Compute and TransformID")
	}
	if !spec.Storage.valid() {
		return nil, errors.New("aero: ingestion needs a Storage target")
	}
	// Re-registration against a recovered metadata store adopts the
	// existing identities instead of minting duplicates, so a daemon
	// restart with -data-dir is idempotent.
	rawUUID, outUUID, flowID := "", "", ""
	if prev, err := p.findFlow(spec.Name, IngestionKind); err != nil {
		return nil, err
	} else if prev != nil {
		if len(prev.OutputUUIDs) != 2 {
			return nil, fmt.Errorf("aero: existing flow %s (%s) is not an ingestion registration", prev.ID, spec.Name)
		}
		flowID, rawUUID, outUUID = prev.ID, prev.OutputUUIDs[0], prev.OutputUUIDs[1]
	} else {
		raw, err := p.Meta.CreateData(spec.Name+"/raw", spec.URL)
		if err != nil {
			return nil, err
		}
		out, err := p.Meta.CreateData(spec.Name+"/transformed", "")
		if err != nil {
			return nil, err
		}
		rec, err := p.Meta.CreateFlow(FlowRecord{
			Name:        spec.Name,
			Kind:        IngestionKind,
			OutputUUIDs: []string{raw.UUID, out.UUID},
		})
		if err != nil {
			return nil, err
		}
		flowID, rawUUID, outUUID = rec.ID, raw.UUID, out.UUID
	}
	flow := &IngestionFlow{
		ID: flowID, Name: spec.Name,
		RawUUID: rawUUID, OutputUUID: outUUID,
		platform: p, spec: spec,
	}
	if spec.PollInterval > 0 && p.Timers != nil {
		t, err := p.Timers.Schedule(p.tokenID, spec.Name+"/poll", spec.PollInterval, func() {
			if _, err := flow.Poll(); err != nil {
				p.logEvent("ingest.error", flow.ID, err.Error())
			}
		})
		if err != nil {
			return nil, err
		}
		flow.timer = t
	}
	return flow, nil
}

// findFlow returns the registered flow named name of the given kind, or
// nil if none exists.
func (p *Platform) findFlow(name string, kind FlowKind) (*FlowRecord, error) {
	flows, err := p.Meta.ListFlows()
	if err != nil {
		return nil, err
	}
	for _, f := range flows {
		if f.Name == name && f.Kind == kind {
			return f, nil
		}
	}
	return nil, nil
}

// Timer exposes the flow's poll timer (nil for manual flows).
func (f *IngestionFlow) Timer() *globus.Timer { return f.timer }

// Poll fetches the source once. If the content checksum differs from the
// latest recorded raw version, the update path runs: store raw, transform
// on the compute endpoint, store output, version both, record provenance,
// and trigger subscribed analyses. It reports whether an update occurred.
func (f *IngestionFlow) Poll() (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mIngestPolls.Inc()
	span := obs.StartSpan("aero.ingest.poll")
	span.SetDetail(f.Name)
	start := time.Now()
	updated, err := f.pollLocked(span)
	mIngestPoll.ObserveSince(start)
	switch {
	case err != nil:
		mIngestErrors.Inc()
	case updated:
		mIngestUpdates.Inc()
	default:
		mIngestNoChange.Inc()
	}
	span.EndErr(err)
	return updated, err
}

// pollLocked is the poll body; the caller holds f.mu and owns the span.
func (f *IngestionFlow) pollLocked(span *obs.Span) (bool, error) {
	p := f.platform

	resp, err := p.httpClient.Get(f.spec.URL)
	if err != nil {
		return false, fmt.Errorf("aero: poll %s: %w", f.spec.URL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, fmt.Errorf("aero: poll read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("aero: poll %s: HTTP %d", f.spec.URL, resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	checksum := hex.EncodeToString(sum[:])

	raw, err := p.Meta.GetData(f.RawUUID)
	if err != nil {
		return false, err
	}
	if latest := raw.Latest(); latest != nil && latest.Checksum == checksum {
		p.logEvent("ingest.nochange", f.ID, f.spec.URL)
		return false, nil
	}
	versionNum := len(raw.Versions) + 1

	// 1. Stage the raw data to the user's storage endpoint.
	rawPath := fmt.Sprintf("raw/%s/v%d.csv", f.Name, versionNum)
	if err := f.spec.Storage.Endpoint.Put(f.spec.Storage.Collection, rawPath, p.identity, body); err != nil {
		return false, fmt.Errorf("aero: store raw: %w", err)
	}
	rawRec, err := p.Meta.AppendVersion(f.RawUUID, Version{
		Checksum: checksum, Size: len(body),
		Endpoint: f.spec.Storage.Endpoint.Name, Collection: f.spec.Storage.Collection, Path: rawPath,
	})
	if err != nil {
		return false, err
	}

	// 2. Run the user's validation/transformation function on the compute
	// endpoint with the data as input.
	tspan := span.StartChild("aero.ingest.transform")
	transformed, err := f.spec.Compute.Call(p.tokenID, f.spec.TransformID, body)
	tspan.EndErr(err)
	if err != nil {
		p.logEvent("ingest.error", f.ID, err.Error())
		return false, fmt.Errorf("aero: transform: %w", err)
	}

	// 3. Upload the transformed output and version it.
	outPath := fmt.Sprintf("data/%s/v%d.csv", f.Name, versionNum)
	sspan := span.StartChild("aero.ingest.store")
	if err := f.spec.Storage.Endpoint.Put(f.spec.Storage.Collection, outPath, p.identity, transformed); err != nil {
		sspan.EndErr(err)
		return false, fmt.Errorf("aero: store transformed: %w", err)
	}
	sspan.End()
	outSum := sha256.Sum256(transformed)
	outRec, err := p.Meta.AppendVersion(f.OutputUUID, Version{
		Checksum: hex.EncodeToString(outSum[:]), Size: len(transformed),
		Endpoint: f.spec.Storage.Endpoint.Name, Collection: f.spec.Storage.Collection, Path: outPath,
	})
	if err != nil {
		return false, err
	}

	// 4. Provenance and run accounting.
	p.metaError(f.ID, p.Meta.AddProvenance(ProvenanceEdge{
		FlowID:    f.ID,
		InputUUID: f.RawUUID, InputVersion: rawRec.Latest().Num,
		OutputUUID: f.OutputUUID, OutputVersion: outRec.Latest().Num,
		Timestamp: time.Now(),
	}))
	p.metaError(f.ID, p.Meta.RecordRun(f.ID, time.Now()))
	p.logEvent("ingest.update", f.ID, fmt.Sprintf("%s v%d", f.OutputUUID, outRec.Latest().Num))

	// 5. Trigger downstream analyses.
	p.notifyUpdate(f.OutputUUID, outRec.Latest().Num)
	return true, nil
}

// AnalysisSpec registers an analysis triggered by data updates. Input data
// is staged from storage, the function runs on the compute endpoint, and
// outputs are stored and versioned (§2.2).
type AnalysisSpec struct {
	Name string
	// InputUUIDs are the data identities that trigger the flow.
	InputUUIDs []string
	Policy     TriggerPolicy
	Compute    *globus.ComputeEndpoint
	// AnalyzeID is the registered harness function. Its payload is a
	// JSON-encoded AnalysisRequest; it must return EncodeOutputs(...) with
	// exactly the names declared in OutputNames.
	AnalyzeID string
	// OutputNames declare the flow's products; each gets its own UUID.
	OutputNames []string
	Storage     StorageTarget
	// MaxRetries re-runs a failed analysis execution (transient compute
	// errors); 0 means a single attempt.
	MaxRetries int
}

// AnalysisRequest is the payload delivered to analysis functions.
type AnalysisRequest struct {
	Flow   string          `json:"flow"`
	Inputs []AnalysisInput `json:"inputs"`
}

// AnalysisInput carries one input's identity, version, and bytes.
type AnalysisInput struct {
	UUID    string `json:"uuid"`
	Version int    `json:"version"`
	Data    []byte `json:"data"`
}

// EncodeOutputs packs named outputs into the wire format analysis functions
// return.
func EncodeOutputs(outputs map[string][]byte) ([]byte, error) {
	return json.Marshal(outputs)
}

// DecodeOutputs unpacks the analysis function result.
func DecodeOutputs(data []byte) (map[string][]byte, error) {
	var out map[string][]byte
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("aero: decode outputs: %w", err)
	}
	return out, nil
}

// AnalysisFlow is a registered analysis. OutputUUIDs (ordered as
// OutputNames) can be used as inputs to further flows, exactly as the
// paper chains R(t) analyses into the aggregation step.
type AnalysisFlow struct {
	ID          string
	Name        string
	OutputUUIDs []string

	platform *Platform
	spec     AnalysisSpec

	mu sync.Mutex
	// pendingVersion[uuid] is the newest unconsumed version per input.
	pendingVersion map[string]int
	// consumedVersion[uuid] is the last version used in a run.
	consumedVersion map[string]int
	runs            int
}

// RegisterAnalysis creates the flow's output identities and subscribes it
// to its inputs. Registration returns the flow whose OutputUUIDs identify
// the analysis products.
func (p *Platform) RegisterAnalysis(spec AnalysisSpec) (*AnalysisFlow, error) {
	if spec.Name == "" {
		return nil, errors.New("aero: analysis needs a Name")
	}
	if len(spec.InputUUIDs) == 0 {
		return nil, errors.New("aero: analysis needs at least one input UUID")
	}
	if spec.Compute == nil || spec.AnalyzeID == "" {
		return nil, errors.New("aero: analysis needs Compute and AnalyzeID")
	}
	if len(spec.OutputNames) == 0 {
		return nil, errors.New("aero: analysis needs at least one output name")
	}
	if !spec.Storage.valid() {
		return nil, errors.New("aero: analysis needs a Storage target")
	}
	// Inputs must exist.
	for _, u := range spec.InputUUIDs {
		if _, err := p.Meta.GetData(u); err != nil {
			return nil, fmt.Errorf("aero: unknown input %s: %w", u, err)
		}
	}
	// Adopt an existing registration on re-register (recovered store).
	var flowID string
	var outUUIDs []string
	if prev, err := p.findFlow(spec.Name, AnalysisKind); err != nil {
		return nil, err
	} else if prev != nil {
		if len(prev.OutputUUIDs) != len(spec.OutputNames) {
			return nil, fmt.Errorf("aero: existing flow %s (%s) declares %d outputs, spec declares %d",
				prev.ID, spec.Name, len(prev.OutputUUIDs), len(spec.OutputNames))
		}
		flowID = prev.ID
		outUUIDs = append([]string(nil), prev.OutputUUIDs...)
	} else {
		for _, name := range spec.OutputNames {
			rec, err := p.Meta.CreateData(spec.Name+"/"+name, "")
			if err != nil {
				return nil, err
			}
			outUUIDs = append(outUUIDs, rec.UUID)
		}
		rec, err := p.Meta.CreateFlow(FlowRecord{
			Name:        spec.Name,
			Kind:        AnalysisKind,
			InputUUIDs:  append([]string(nil), spec.InputUUIDs...),
			OutputUUIDs: append([]string(nil), outUUIDs...),
		})
		if err != nil {
			return nil, err
		}
		flowID = rec.ID
	}
	flow := &AnalysisFlow{
		ID: flowID, Name: spec.Name, OutputUUIDs: outUUIDs,
		platform: p, spec: spec,
		pendingVersion:  map[string]int{},
		consumedVersion: map[string]int{},
	}
	p.mu.Lock()
	p.analyses = append(p.analyses, flow)
	p.mu.Unlock()
	return flow, nil
}

// Runs reports how many times the analysis has executed.
func (f *AnalysisFlow) Runs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

// notifyUpdate routes a data-version event to subscribed analyses,
// dispatching eligible runs asynchronously.
func (p *Platform) notifyUpdate(uuid string, version int) {
	now := time.Now()
	p.mu.Lock()
	subs := append([]*AnalysisFlow(nil), p.analyses...)
	p.mu.Unlock()
	for _, flow := range subs {
		flow.observe(uuid, version, now)
	}
}

// observe records one input update; at is when the update was published
// (watch-to-trigger latency is measured from it).
func (f *AnalysisFlow) observe(uuid string, version int, at time.Time) {
	subscribed := false
	for _, u := range f.spec.InputUUIDs {
		if u == uuid {
			subscribed = true
			break
		}
	}
	if !subscribed {
		return
	}
	f.mu.Lock()
	f.pendingVersion[uuid] = version
	ready := false
	switch f.spec.Policy {
	case TriggerAny:
		ready = true
	case TriggerAll:
		ready = true
		for _, u := range f.spec.InputUUIDs {
			if f.pendingVersion[u] <= f.consumedVersion[u] {
				ready = false
				break
			}
		}
	}
	var consume map[string]int
	if ready {
		consume = map[string]int{}
		for _, u := range f.spec.InputUUIDs {
			v := f.pendingVersion[u]
			if v == 0 {
				v = f.consumedVersion[u]
			}
			consume[u] = v
			f.consumedVersion[u] = v
		}
		f.runs++
	}
	f.mu.Unlock()
	if !ready {
		return
	}
	mFlowsTriggered.Inc()
	mWatchTrigger.ObserveSince(at)
	p := f.platform
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		span := obs.StartSpan("aero.analysis")
		span.SetDetail(f.Name)
		var err error
		for attempt := 0; attempt <= f.spec.MaxRetries; attempt++ {
			if err = f.execute(consume); err == nil {
				if attempt > 0 {
					p.logEvent("analysis.retried", f.ID, fmt.Sprintf("succeeded on attempt %d", attempt+1))
				}
				mAnalysisRuns.Inc()
				span.End()
				return
			}
			mAnalysisErrors.Inc()
			p.logEvent("analysis.error", f.ID, err.Error())
		}
		span.EndErr(err)
	}()
}

// execute stages inputs, runs the harness function on the compute endpoint,
// and stores/versions the outputs.
func (f *AnalysisFlow) execute(versions map[string]int) error {
	p := f.platform
	req := AnalysisRequest{Flow: f.Name}
	for _, u := range f.spec.InputUUIDs {
		rec, err := p.Meta.GetData(u)
		if err != nil {
			return err
		}
		ver := rec.Latest()
		if ver == nil {
			return fmt.Errorf("aero: input %s has no versions", u)
		}
		// Download the input from the user's storage endpoint (the data
		// plane); the metadata service only supplied coordinates.
		if ver.Endpoint != f.spec.Storage.Endpoint.Name {
			return fmt.Errorf("aero: input %s stored on unknown endpoint %q", u, ver.Endpoint)
		}
		data, err := f.spec.Storage.Endpoint.Get(ver.Collection, ver.Path, p.identity)
		if err != nil {
			return fmt.Errorf("aero: stage input %s: %w", u, err)
		}
		req.Inputs = append(req.Inputs, AnalysisInput{UUID: u, Version: versions[u], Data: data})
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	result, err := f.spec.Compute.Call(p.tokenID, f.spec.AnalyzeID, payload)
	if err != nil {
		return fmt.Errorf("aero: analysis %s: %w", f.Name, err)
	}
	outputs, err := DecodeOutputs(result)
	if err != nil {
		return err
	}
	now := time.Now()
	for i, name := range f.spec.OutputNames {
		data, ok := outputs[name]
		if !ok {
			return fmt.Errorf("aero: analysis %s did not produce declared output %q", f.Name, name)
		}
		uuid := f.OutputUUIDs[i]
		rec, err := p.Meta.GetData(uuid)
		if err != nil {
			return err
		}
		path := fmt.Sprintf("data/%s/%s/v%d", f.Name, name, len(rec.Versions)+1)
		if err := f.spec.Storage.Endpoint.Put(f.spec.Storage.Collection, path, p.identity, data); err != nil {
			return fmt.Errorf("aero: store output %q: %w", name, err)
		}
		sum := sha256.Sum256(data)
		outRec, err := p.Meta.AppendVersion(uuid, Version{
			Checksum: hex.EncodeToString(sum[:]), Size: len(data),
			Endpoint: f.spec.Storage.Endpoint.Name, Collection: f.spec.Storage.Collection, Path: path,
		})
		if err != nil {
			return err
		}
		for _, in := range req.Inputs {
			p.metaError(f.ID, p.Meta.AddProvenance(ProvenanceEdge{
				FlowID:    f.ID,
				InputUUID: in.UUID, InputVersion: in.Version,
				OutputUUID: uuid, OutputVersion: outRec.Latest().Num,
				Timestamp: now,
			}))
		}
		p.notifyUpdate(uuid, outRec.Latest().Num)
	}
	p.metaError(f.ID, p.Meta.RecordRun(f.ID, now))
	p.logEvent("analysis.run", f.ID, f.Name)
	return nil
}

// FetchLatest downloads the current bytes of a data UUID from its recorded
// storage location — the convenience used by stakeholders and tests to read
// shared outputs.
func (p *Platform) FetchLatest(uuid string, endpoint *globus.Endpoint) ([]byte, *Version, error) {
	rec, err := p.Meta.GetData(uuid)
	if err != nil {
		return nil, nil, err
	}
	ver := rec.Latest()
	if ver == nil {
		return nil, nil, fmt.Errorf("aero: %s has no versions", uuid)
	}
	if endpoint == nil || endpoint.Name != ver.Endpoint {
		return nil, nil, fmt.Errorf("aero: %s is stored on endpoint %q", uuid, ver.Endpoint)
	}
	data, err := endpoint.Get(ver.Collection, ver.Path, p.identity)
	if err != nil {
		return nil, nil, err
	}
	return data, ver, nil
}
