package aero

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/globus"
)

func TestStoreDataLifecycle(t *testing.T) {
	s := NewStore()
	rec, err := s.CreateData("ww/raw", "http://example/ww.csv")
	if err != nil {
		t.Fatal(err)
	}
	if rec.UUID == "" || rec.Latest() != nil {
		t.Fatalf("fresh record malformed: %+v", rec)
	}
	r2, err := s.AppendVersion(rec.UUID, Version{Checksum: "abc", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Latest().Num != 1 {
		t.Fatalf("first version num = %d", r2.Latest().Num)
	}
	r3, _ := s.AppendVersion(rec.UUID, Version{Checksum: "def", Size: 12})
	if r3.Latest().Num != 2 || r3.Latest().Checksum != "def" {
		t.Fatalf("second version wrong: %+v", r3.Latest())
	}
	if _, err := s.GetData("data-bogus"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown uuid error = %v", err)
	}
	if _, err := s.CreateData("", ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestStoreReturnsCopies(t *testing.T) {
	s := NewStore()
	rec, _ := s.CreateData("x", "")
	s.AppendVersion(rec.UUID, Version{Checksum: "a"})
	got, _ := s.GetData(rec.UUID)
	got.Versions[0].Checksum = "tampered"
	again, _ := s.GetData(rec.UUID)
	if again.Versions[0].Checksum != "a" {
		t.Fatal("store state mutated through returned copy")
	}
}

func TestStoreFlowsAndRuns(t *testing.T) {
	s := NewStore()
	f, err := s.CreateFlow(FlowRecord{Name: "ingest-obrien", Kind: IngestionKind})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID == "" {
		t.Fatal("no flow ID assigned")
	}
	now := time.Now()
	if err := s.RecordRun(f.ID, now); err != nil {
		t.Fatal(err)
	}
	got, _ := s.GetFlow(f.ID)
	if got.Runs != 1 || !got.LastRun.Equal(now) {
		t.Fatalf("run not recorded: %+v", got)
	}
	flows, _ := s.ListFlows()
	if len(flows) != 1 {
		t.Fatal("ListFlows wrong")
	}
	if _, err := s.CreateFlow(FlowRecord{}); err == nil {
		t.Fatal("unnamed flow accepted")
	}
}

func TestStoreProvenanceAndLineage(t *testing.T) {
	s := NewStore()
	a, _ := s.CreateData("a", "")
	b, _ := s.CreateData("b", "")
	c, _ := s.CreateData("c", "")
	s.AddProvenance(ProvenanceEdge{FlowID: "f1", InputUUID: a.UUID, OutputUUID: b.UUID})
	s.AddProvenance(ProvenanceEdge{FlowID: "f2", InputUUID: b.UUID, OutputUUID: c.UUID})
	edges, _ := s.Provenance(b.UUID)
	if len(edges) != 2 {
		t.Fatalf("b touches 2 edges, got %d", len(edges))
	}
	lineage, _ := s.Lineage(c.UUID)
	if len(lineage) != 2 {
		t.Fatalf("lineage of c = %v", lineage)
	}
	want := map[string]bool{a.UUID: true, b.UUID: true}
	for _, u := range lineage {
		if !want[u] {
			t.Fatalf("unexpected ancestor %s", u)
		}
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStoreAt(t, dir)
	rec, _ := s.CreateData("x", "http://src")
	s.AppendVersion(rec.UUID, Version{Checksum: "a", Size: 1})
	s.CreateFlow(FlowRecord{Name: "f", Kind: AnalysisKind, InputUUIDs: []string{rec.UUID}})
	s.AddProvenance(ProvenanceEdge{FlowID: "f", InputUUID: rec.UUID, OutputUUID: "other"})

	_, s2 := compactReopen(t, s, dir)
	got, err := s2.GetData(rec.UUID)
	if err != nil || got.Latest().Checksum != "a" {
		t.Fatalf("loaded store wrong: %+v, %v", got, err)
	}
	// IDs must keep incrementing without collision after load.
	rec2, _ := s2.CreateData("y", "")
	if rec2.UUID == rec.UUID {
		t.Fatal("ID collision after load")
	}
}

func TestServerClientImplementsMetadata(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	c := NewClient(srv.URL)

	rec, err := c.CreateData("ww", "http://src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendVersion(rec.UUID, Version{Checksum: "abc", Size: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetData(rec.UUID)
	if err != nil || got.Latest().Checksum != "abc" {
		t.Fatalf("client GetData = %+v, %v", got, err)
	}
	if _, err := c.GetData("data-bogus"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("client 404 mapping: %v", err)
	}
	all, err := c.ListData()
	if err != nil || len(all) != 1 {
		t.Fatalf("ListData = %v, %v", all, err)
	}
	flow, err := c.CreateFlow(FlowRecord{Name: "an", Kind: AnalysisKind, InputUUIDs: []string{rec.UUID}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RecordRun(flow.ID, time.Now()); err != nil {
		t.Fatal(err)
	}
	gotFlow, err := c.GetFlow(flow.ID)
	if err != nil || gotFlow.Runs != 1 {
		t.Fatalf("GetFlow = %+v, %v", gotFlow, err)
	}
	flows, err := c.ListFlows()
	if err != nil || len(flows) != 1 {
		t.Fatalf("ListFlows = %v, %v", flows, err)
	}
	if err := c.AddProvenance(ProvenanceEdge{FlowID: flow.ID, InputUUID: rec.UUID, OutputUUID: "o"}); err != nil {
		t.Fatal(err)
	}
	edges, err := c.Provenance(rec.UUID)
	if err != nil || len(edges) != 1 {
		t.Fatalf("Provenance = %v, %v", edges, err)
	}
}

// testRig assembles a full local platform: auth, storage, login-node
// compute, timers, metadata.
type testRig struct {
	platform *Platform
	endpoint *globus.Endpoint
	compute  *globus.ComputeEndpoint
	token    *globus.Token
	auth     *globus.Auth
}

func newRig(t *testing.T, meta Metadata) *testRig {
	t.Helper()
	auth := globus.NewAuth()
	tok := auth.Issue("alice", 0, globus.ScopeTransfer, globus.ScopeCompute, globus.ScopeTimers, globus.ScopeFlows)
	ep := globus.NewEndpoint("eagle")
	if err := ep.CreateCollection("osprey", "alice"); err != nil {
		t.Fatal(err)
	}
	comp := globus.NewComputeEndpoint("bebop-login", auth, globus.LoginNodeEngine{})
	if meta == nil {
		meta = NewStore()
	}
	p, err := NewPlatform(Config{
		Meta:     meta,
		Transfer: globus.NewTransferService(auth),
		Timers:   globus.NewTimerService(auth),
		Identity: "alice",
		TokenID:  tok.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{platform: p, endpoint: ep, compute: comp, token: tok, auth: auth}
}

// mutableSource is an HTTP source whose body can be swapped.
type mutableSource struct {
	mu   sync.Mutex
	body string
}

func (m *mutableSource) set(s string) {
	m.mu.Lock()
	m.body = s
	m.mu.Unlock()
}

// httpBody adapts a mutableSource to http.Handler.
func httpBody(m *mutableSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		defer m.mu.Unlock()
		w.Write([]byte(m.body))
	})
}

func TestIngestionPollVersioningAndTriggers(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform

	src := &mutableSource{}
	src.set("day,conc\n1,5\n")
	srv := httptest.NewServer(httpBody(src))
	defer srv.Close()

	upper, err := rig.compute.RegisterFunction(rig.token.ID, "upper", func(ctx context.Context, b []byte) ([]byte, error) {
		return bytes.ToUpper(b), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := p.RegisterIngestion(IngestionSpec{
		Name: "obrien", URL: srv.URL,
		Compute: rig.compute, TransformID: upper,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First poll: update.
	updated, err := flow.Poll()
	if err != nil || !updated {
		t.Fatalf("first poll: updated=%v err=%v", updated, err)
	}
	// Second poll with same content: no-op.
	updated, err = flow.Poll()
	if err != nil || updated {
		t.Fatalf("no-change poll: updated=%v err=%v", updated, err)
	}
	// Content changes: new version.
	src.set("day,conc\n1,5\n2,6\n")
	updated, err = flow.Poll()
	if err != nil || !updated {
		t.Fatalf("changed poll: updated=%v err=%v", updated, err)
	}

	raw, _ := p.Meta.GetData(flow.RawUUID)
	out, _ := p.Meta.GetData(flow.OutputUUID)
	if len(raw.Versions) != 2 || len(out.Versions) != 2 {
		t.Fatalf("versions: raw %d out %d, want 2/2", len(raw.Versions), len(out.Versions))
	}
	// Transformed data is stored on the endpoint, uppercased.
	data, _, err := p.FetchLatest(flow.OutputUUID, rig.endpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "DAY,CONC") {
		t.Fatalf("transform not applied: %q", data)
	}
	// Provenance edge raw->output exists.
	edges, _ := p.Meta.Provenance(flow.OutputUUID)
	if len(edges) != 2 {
		t.Fatalf("want 2 provenance edges, got %d", len(edges))
	}
}

func TestAnalysisTriggerAnyAndChaining(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform

	src := &mutableSource{}
	src.set("v1")
	srv := httptest.NewServer(httpBody(src))
	defer srv.Close()

	ident, _ := rig.compute.RegisterFunction(rig.token.ID, "id", func(ctx context.Context, b []byte) ([]byte, error) {
		return b, nil
	})
	ing, err := p.RegisterIngestion(IngestionSpec{
		Name: "plantA", URL: srv.URL, Compute: rig.compute, TransformID: ident,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Analysis 1 consumes the ingestion output.
	analyze, _ := rig.compute.RegisterFunction(rig.token.ID, "rt", func(ctx context.Context, payload []byte) ([]byte, error) {
		var req AnalysisRequest
		if err := jsonUnmarshal(payload, &req); err != nil {
			return nil, err
		}
		return EncodeOutputs(map[string][]byte{
			"table": append([]byte("rt:"), req.Inputs[0].Data...),
			"plot":  []byte("png"),
		})
	})
	a1, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "rt-plantA", InputUUIDs: []string{ing.OutputUUID}, Policy: TriggerAny,
		Compute: rig.compute, AnalyzeID: analyze,
		OutputNames: []string{"table", "plot"},
		Storage:     StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Analysis 2 chains off analysis 1's "table" output.
	agg, _ := rig.compute.RegisterFunction(rig.token.ID, "agg", func(ctx context.Context, payload []byte) ([]byte, error) {
		var req AnalysisRequest
		if err := jsonUnmarshal(payload, &req); err != nil {
			return nil, err
		}
		return EncodeOutputs(map[string][]byte{"summary": append([]byte("agg:"), req.Inputs[0].Data...)})
	})
	a2, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "aggregate", InputUUIDs: []string{a1.OutputUUIDs[0]}, Policy: TriggerAny,
		Compute: rig.compute, AnalyzeID: agg,
		OutputNames: []string{"summary"},
		Storage:     StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ing.Poll(); err != nil {
		t.Fatal(err)
	}
	p.WaitIdle()

	if a1.Runs() != 1 || a2.Runs() != 1 {
		t.Fatalf("runs: a1=%d a2=%d, want 1/1", a1.Runs(), a2.Runs())
	}
	data, _, err := p.FetchLatest(a2.OutputUUIDs[0], rig.endpoint)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "agg:rt:v1" {
		t.Fatalf("chained output = %q", data)
	}
	// Lineage of the final product reaches back to the raw ingest.
	type lineager interface {
		Lineage(string) ([]string, error)
	}
	ln, err := p.Meta.(lineager).Lineage(a2.OutputUUIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range ln {
		if u == ing.RawUUID {
			found = true
		}
	}
	if !found {
		t.Fatalf("lineage %v does not reach raw data %s", ln, ing.RawUUID)
	}
}

func TestTriggerAllWaitsForEveryInput(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform

	// Two independent upstream data items, updated manually.
	d1, _ := p.Meta.CreateData("in1", "")
	d2, _ := p.Meta.CreateData("in2", "")
	put := func(uuid, path, content string) {
		if err := rig.endpoint.Put("osprey", path, "alice", []byte(content)); err != nil {
			t.Fatal(err)
		}
		rec, err := p.Meta.AppendVersion(uuid, Version{
			Checksum: content, Size: len(content),
			Endpoint: "eagle", Collection: "osprey", Path: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.notifyUpdate(uuid, rec.Latest().Num)
	}

	fn, _ := rig.compute.RegisterFunction(rig.token.ID, "join", func(ctx context.Context, payload []byte) ([]byte, error) {
		var req AnalysisRequest
		if err := jsonUnmarshal(payload, &req); err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, in := range req.Inputs {
			sb.Write(in.Data)
			sb.WriteByte('|')
		}
		return EncodeOutputs(map[string][]byte{"joined": []byte(sb.String())})
	})
	flow, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "agg-all", InputUUIDs: []string{d1.UUID, d2.UUID}, Policy: TriggerAll,
		Compute: rig.compute, AnalyzeID: fn,
		OutputNames: []string{"joined"},
		Storage:     StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}

	put(d1.UUID, "a/v1", "A1")
	p.WaitIdle()
	if flow.Runs() != 0 {
		t.Fatal("all-policy flow ran with only one input updated")
	}
	put(d2.UUID, "b/v1", "B1")
	p.WaitIdle()
	if flow.Runs() != 1 {
		t.Fatalf("all-policy flow runs = %d after both inputs, want 1", flow.Runs())
	}
	// A second single update must not retrigger.
	put(d1.UUID, "a/v2", "A2")
	p.WaitIdle()
	if flow.Runs() != 1 {
		t.Fatal("all-policy flow retriggered on a single update")
	}
	// Completing the pair does.
	put(d2.UUID, "b/v2", "B2")
	p.WaitIdle()
	if flow.Runs() != 2 {
		t.Fatalf("runs = %d after second complete round, want 2", flow.Runs())
	}
	data, _, _ := p.FetchLatest(flow.OutputUUIDs[0], rig.endpoint)
	if string(data) != "A2|B2|" {
		t.Fatalf("joined output = %q", data)
	}
}

func TestRegisterValidation(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	st := StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"}
	if _, err := p.RegisterIngestion(IngestionSpec{URL: "http://x", Compute: rig.compute, TransformID: "f", Storage: st}); err == nil {
		t.Fatal("nameless ingestion accepted")
	}
	if _, err := p.RegisterIngestion(IngestionSpec{Name: "x", URL: "http://x", Storage: st}); err == nil {
		t.Fatal("computeless ingestion accepted")
	}
	if _, err := p.RegisterAnalysis(AnalysisSpec{Name: "a", InputUUIDs: []string{"data-bogus"}, Compute: rig.compute, AnalyzeID: "f", OutputNames: []string{"o"}, Storage: st}); err == nil {
		t.Fatal("analysis with unknown input accepted")
	}
	if _, err := p.RegisterAnalysis(AnalysisSpec{Name: "a", Compute: rig.compute, AnalyzeID: "f", OutputNames: []string{"o"}, Storage: st}); err == nil {
		t.Fatal("inputless analysis accepted")
	}
	if _, err := NewPlatform(Config{}); err == nil {
		t.Fatal("empty platform config accepted")
	}
}

func TestPlatformAgainstRemoteMetadata(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	rig := newRig(t, NewClient(srv.URL))
	p := rig.platform

	src := &mutableSource{}
	src.set("hello")
	dataSrv := httptest.NewServer(httpBody(src))
	defer dataSrv.Close()

	ident, _ := rig.compute.RegisterFunction(rig.token.ID, "id", func(ctx context.Context, b []byte) ([]byte, error) {
		return b, nil
	})
	flow, err := p.RegisterIngestion(IngestionSpec{
		Name: "remote-meta", URL: dataSrv.URL, Compute: rig.compute, TransformID: ident,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.Poll(); err != nil {
		t.Fatal(err)
	}
	// The metadata landed in the remote store; the data did not.
	rec, err := store.GetData(flow.OutputUUID)
	if err != nil || rec.Latest() == nil {
		t.Fatalf("remote store missing version: %v", err)
	}
	if rec.Latest().Endpoint != "eagle" {
		t.Fatal("metadata should point at the user's storage endpoint")
	}
}

func TestEventsLogged(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	src := &mutableSource{}
	src.set("x")
	srv := httptest.NewServer(httpBody(src))
	defer srv.Close()
	ident, _ := rig.compute.RegisterFunction(rig.token.ID, "id", func(ctx context.Context, b []byte) ([]byte, error) {
		return b, nil
	})
	flow, _ := p.RegisterIngestion(IngestionSpec{
		Name: "ev", URL: srv.URL, Compute: rig.compute, TransformID: ident,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	flow.Poll()
	flow.Poll()
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	if kinds["ingest.update"] != 1 || kinds["ingest.nochange"] != 1 {
		t.Fatalf("event log wrong: %v", kinds)
	}
}

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }
