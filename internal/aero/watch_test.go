package aero

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// pushVersion stores bytes on the rig endpoint and versions the identity.
func pushVersion(t *testing.T, rig *testRig, uuid, path, content string) {
	t.Helper()
	p := rig.platform
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

// storeOf returns the in-process Store under a rig's platform.
func storeOf(rig *testRig) *Store { return rig.platform.Meta.(*Store) }

// nextUpdates drains sub until it has delivered n updates, failing the
// test if they do not all arrive within a second.
func nextUpdates(t *testing.T, sub *Subscription, n int) []DataUpdate {
	t.Helper()
	var got []DataUpdate
	deadline := time.Now().Add(time.Second)
	for len(got) < n {
		wait := time.Until(deadline)
		if wait <= 0 {
			t.Fatalf("got %d of %d updates: %+v", len(got), n, got)
		}
		events, _, ok := sub.Next(wait)
		if !ok {
			t.Fatalf("subscription closed after %d of %d updates", len(got), n)
		}
		got = append(got, events...)
	}
	return got
}

func TestSubscribeReceivesUpdates(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	d, _ := p.Meta.CreateData("watched", "")
	sub, err := storeOf(rig).SubscribeUpdates("", d.UUID, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	pushVersion(t, rig, d.UUID, "w/v1", "one")
	pushVersion(t, rig, d.UUID, "w/v2", "two")

	for i, u := range nextUpdates(t, sub, 2) {
		if u.UUID != d.UUID || u.Version != i+1 {
			t.Fatalf("update %d = %+v", i+1, u)
		}
	}
}

func TestSubscribeWildcardAndFiltering(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	store := storeOf(rig)
	a, _ := p.Meta.CreateData("a", "")
	b, _ := p.Meta.CreateData("b", "")

	all, err := store.SubscribeUpdates("", "", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Cancel()
	onlyA, err := store.SubscribeUpdates("", a.UUID, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer onlyA.Cancel()

	pushVersion(t, rig, a.UUID, "a/v1", "x")
	pushVersion(t, rig, b.UUID, "b/v1", "y")

	nextUpdates(t, all, 2)
	if u := nextUpdates(t, onlyA, 1); len(u) != 1 || u[0].UUID != a.UUID {
		t.Fatalf("filtered subscriber got %+v", u)
	}
	if extra, _, _ := onlyA.Next(50 * time.Millisecond); len(extra) != 0 {
		t.Fatalf("filtered subscriber got extra events %+v", extra)
	}
}

func TestSubscribeCancelClosesChannel(t *testing.T) {
	rig := newRig(t, nil)
	sub, err := storeOf(rig).SubscribeUpdates("", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	if _, _, ok := sub.Next(time.Second); ok {
		t.Fatal("subscription still open after cancel")
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	d, _ := p.Meta.CreateData("busy", "")
	sub, err := storeOf(rig).SubscribeUpdates("", d.UUID, 1) // tiny buffer, never drained
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		pushVersion(t, rig, d.UUID, "busy/v"+string(rune('0'+i)), string(rune('a'+i)))
	}
	if sub.Dropped() == 0 {
		t.Fatal("expected dropped updates for a full buffer")
	}
}

// identityIngestion registers an ingestion flow named name over a fresh
// source serving "v1", with an identity transform.
func identityIngestion(t *testing.T, rig *testRig, name string) *IngestionFlow {
	t.Helper()
	src := &mutableSource{}
	src.set("v1")
	srv := httptest.NewServer(httpBody(src))
	t.Cleanup(srv.Close)
	ident, _ := rig.compute.RegisterFunction(rig.token.ID, "id", func(ctx context.Context, b []byte) ([]byte, error) {
		return b, nil
	})
	flow, err := rig.platform.RegisterIngestion(IngestionSpec{
		Name: name, URL: srv.URL, Compute: rig.compute, TransformID: ident,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return flow
}

func TestSubscriberSeesIngestionPipeline(t *testing.T) {
	// End-to-end: a watch on an ingestion output fires when Poll ingests.
	rig := newRig(t, nil)
	flow := identityIngestion(t, rig, "watched-feed")
	sub, err := storeOf(rig).SubscribeUpdates("", flow.OutputUUID, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if _, err := flow.Poll(); err != nil {
		t.Fatal(err)
	}
	if u := nextUpdates(t, sub, 1); u[0].Version != 1 {
		t.Fatalf("unexpected version %d", u[0].Version)
	}
}

func TestWatchPublishesEachVersionOnce(t *testing.T) {
	// A Platform over an in-process Store: one ingestion poll appends a
	// raw and an output version, and each is announced exactly once.
	rig := newRig(t, nil)
	flow := identityIngestion(t, rig, "once-feed")
	before := mWatchPublished.Value()
	if updated, err := flow.Poll(); err != nil || !updated {
		t.Fatalf("poll = %v, %v", updated, err)
	}
	if got := mWatchPublished.Value() - before; got != 2 {
		t.Fatalf("aero.watch.published moved by %d for 2 appended versions", got)
	}
}

// provenanceDown is a Metadata whose provenance writes always fail.
type provenanceDown struct{ Metadata }

func (provenanceDown) AddProvenance(ProvenanceEdge) error { return errProvenanceDown }

var errProvenanceDown = errors.New("provenance backend down")

func TestMetaWriteErrorsCountedNotFatal(t *testing.T) {
	rig := newRig(t, provenanceDown{NewStore()})
	p := rig.platform
	flow := identityIngestion(t, rig, "prov-feed")
	an, _ := rig.compute.RegisterFunction(rig.token.ID, "an", func(ctx context.Context, payload []byte) ([]byte, error) {
		return EncodeOutputs(map[string][]byte{"o": []byte("y")})
	})
	analysis, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "prov-analysis", InputUUIDs: []string{flow.OutputUUID}, Policy: TriggerAny,
		Compute: rig.compute, AnalyzeID: an, OutputNames: []string{"o"},
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := mFlowMetaErrors.Value()
	if updated, err := flow.Poll(); err != nil || !updated {
		t.Fatalf("poll = %v, %v", updated, err)
	}
	p.WaitIdle()
	// One failed edge from the ingestion, one from the analysis's input.
	if got := mFlowMetaErrors.Value() - before; got != 2 {
		t.Fatalf("aero.flow.meta_errors moved by %d, want 2", got)
	}
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
		if e.Kind == "meta.error" && !strings.Contains(e.Detail, errProvenanceDown.Error()) {
			t.Fatalf("meta.error event detail %q", e.Detail)
		}
	}
	if kinds["meta.error"] != 2 || kinds["ingest.update"] != 1 || kinds["analysis.run"] != 1 {
		t.Fatalf("event log wrong: %v", kinds)
	}
	// The runs still completed: both outputs are versioned.
	for _, uuid := range []string{flow.OutputUUID, analysis.OutputUUIDs[0]} {
		if rec, err := p.Meta.GetData(uuid); err != nil || len(rec.Versions) != 1 {
			t.Fatalf("output %s: %+v, %v", uuid, rec, err)
		}
	}
}

func TestAnalysisRetriesTransientFailures(t *testing.T) {
	rig := newRig(t, nil)
	p := rig.platform
	d, _ := p.Meta.CreateData("in", "")

	attempts := 0
	fn, _ := rig.compute.RegisterFunction(rig.token.ID, "flaky", func(ctx context.Context, payload []byte) ([]byte, error) {
		attempts++
		if attempts < 3 {
			return nil, errTransient
		}
		return EncodeOutputs(map[string][]byte{"out": []byte("done")})
	})
	flow, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "flaky-analysis", InputUUIDs: []string{d.UUID}, Policy: TriggerAny,
		Compute: rig.compute, AnalyzeID: fn,
		OutputNames: []string{"out"},
		Storage:     StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
		MaxRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushVersion(t, rig, d.UUID, "in/v1", "x")
	p.WaitIdle()
	if attempts != 3 {
		t.Fatalf("function ran %d times, want 3", attempts)
	}
	data, _, err := p.FetchLatest(flow.OutputUUIDs[0], rig.endpoint)
	if err != nil || string(data) != "done" {
		t.Fatalf("retried analysis output = %q, %v", data, err)
	}
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	if kinds["analysis.error"] != 2 || kinds["analysis.retried"] != 1 {
		t.Fatalf("event log wrong: %v", kinds)
	}
}

var errTransient = errors.New("transient compute failure")

func TestExportDOT(t *testing.T) {
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
		Name: "dot-feed", URL: srv.URL, Compute: rig.compute, TransformID: ident,
		Storage: StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	})
	if err != nil {
		t.Fatal(err)
	}
	an, _ := rig.compute.RegisterFunction(rig.token.ID, "an", func(ctx context.Context, payload []byte) ([]byte, error) {
		return EncodeOutputs(map[string][]byte{"o": []byte("y")})
	})
	if _, err := p.RegisterAnalysis(AnalysisSpec{
		Name: "dot-analysis", InputUUIDs: []string{ing.OutputUUID}, Policy: TriggerAny,
		Compute: rig.compute, AnalyzeID: an,
		OutputNames: []string{"o"},
		Storage:     StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"},
	}); err != nil {
		t.Fatal(err)
	}

	dot, err := ExportDOT(p.Meta, "Figure 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph osprey", "rankdir=LR",
		"dot-feed", "dot-analysis",
		"dot-feed/transformed", "->",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Every edge must reference declared nodes (syntactic sanity: the
	// analysis input edge points at the ingestion output data node).
	if !strings.Contains(dot, `peripheries=2`) {
		t.Fatal("ingestion flow not double-bordered")
	}
}
