package aero

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"osprey/internal/wal"
)

func openStoreAt(t *testing.T, dir string) *Store {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Name: "wal.aerotest", Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := OpenStore(l)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// saveJSON renders a store's full state through the snapshot codec that
// Compact writes, for comparison.
func saveJSON(t *testing.T, s *Store) string {
	t.Helper()
	s.mu.RLock()
	snap := s.snapshotLocked()
	s.mu.RUnlock()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compactReopen snapshots s with Compact, closes its log and recovers the
// directory, returning the snapshot bytes and the recovered store.
func compactReopen(t *testing.T, s *Store, dir string) ([]byte, *Store) {
	t.Helper()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{Name: "wal.aerotest", Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := l.Snapshot()
	if !ok {
		t.Fatal("no snapshot after Compact")
	}
	re, err := OpenStore(l)
	if err != nil {
		t.Fatal(err)
	}
	return snap, re
}

// populate drives every mutation kind through the store.
func populate(t *testing.T, s *Store) (dataUUID, flowID string) {
	t.Helper()
	d, err := s.CreateData("ww/raw", "http://example/ww.csv")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.CreateData("ww/clean", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion(d.UUID, Version{Checksum: "aa", Size: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion(d.UUID, Version{Checksum: "bb", Size: 11}); err != nil {
		t.Fatal(err)
	}
	f, err := s.CreateFlow(FlowRecord{Name: "ingest-ww", Kind: IngestionKind, OutputUUIDs: []string{d.UUID, out.UUID}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(f.ID, time.Unix(1700000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProvenance(ProvenanceEdge{FlowID: f.ID, InputUUID: d.UUID, InputVersion: 2, OutputUUID: out.UUID, OutputVersion: 1}); err != nil {
		t.Fatal(err)
	}
	return d.UUID, f.ID
}

func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStoreAt(t, dir)
	dataUUID, flowID := populate(t, s)
	want := saveJSON(t, s)
	// Crash: close only the log (no clean shutdown logic), then recover.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStoreAt(t, dir)
	if got := saveJSON(t, s2); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The ID counter continues — no UUID reuse after recovery.
	d, err := s2.CreateData("ww/extra", "")
	if err != nil {
		t.Fatal(err)
	}
	if d.UUID != "data-00000004" {
		t.Fatalf("post-recovery UUID = %s, want data-00000004", d.UUID)
	}
	if _, err := s2.GetData(dataUUID); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetFlow(flowID); err != nil {
		t.Fatal(err)
	}
	s2.wal.Close()
}

func TestStoreCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStoreAt(t, dir)
	populate(t, s)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Mutations after the snapshot replay on top of it.
	if _, err := s.CreateData("ww/post-snap", ""); err != nil {
		t.Fatal(err)
	}
	want := saveJSON(t, s)
	s.wal.Close()

	s2 := openStoreAt(t, dir)
	defer s2.wal.Close()
	if got := saveJSON(t, s2); got != want {
		t.Fatalf("recovered state differs after compaction:\n got %s\nwant %s", got, want)
	}
}

func TestEventRingBuffer(t *testing.T) {
	p, err := NewPlatform(Config{Meta: NewStore(), Identity: "alice", EventBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.logEvent("test", "flow", fmt.Sprintf("e%d", i))
	}
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", 6+i); ev.Detail != want {
			t.Fatalf("event %d = %q, want %q (oldest-first, newest retained)", i, ev.Detail, want)
		}
	}
	if got := p.EventsDropped(); got != 6 {
		t.Fatalf("EventsDropped = %d, want 6", got)
	}
}

// TestRegistrationAdoption re-registers the same flows against a shared
// store — the restart-with-recovered-state path — and expects the existing
// identities to be adopted instead of duplicated.
func TestRegistrationAdoption(t *testing.T) {
	store := NewStore()
	src := &mutableSource{}
	src.set("day,conc\n1,5\n")
	srv := httptest.NewServer(httpBody(src))
	defer srv.Close()

	register := func(rig *testRig) (*IngestionFlow, *AnalysisFlow) {
		t.Helper()
		tid, err := rig.compute.RegisterFunction(rig.token.ID, "upper", func(ctx context.Context, b []byte) ([]byte, error) {
			return bytes.ToUpper(b), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := StorageTarget{Endpoint: rig.endpoint, Collection: "osprey"}
		ing, err := rig.platform.RegisterIngestion(IngestionSpec{
			Name: "plant", URL: srv.URL, Compute: rig.compute, TransformID: tid, Storage: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		aid, err := rig.compute.RegisterFunction(rig.token.ID, "rt", func(ctx context.Context, b []byte) ([]byte, error) {
			return EncodeOutputs(map[string][]byte{"rt": []byte("1.0")})
		})
		if err != nil {
			t.Fatal(err)
		}
		an, err := rig.platform.RegisterAnalysis(AnalysisSpec{
			Name: "plant-rt", InputUUIDs: []string{ing.OutputUUID},
			Compute: rig.compute, AnalyzeID: aid,
			OutputNames: []string{"rt"}, Storage: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ing, an
	}

	ing1, an1 := register(newRig(t, store))
	flows, _ := store.ListFlows()
	if len(flows) != 2 {
		t.Fatalf("first registration created %d flows, want 2", len(flows))
	}

	// "Restart": a fresh platform over the same (recovered) store.
	ing2, an2 := register(newRig(t, store))
	if ing2.ID != ing1.ID || ing2.RawUUID != ing1.RawUUID || ing2.OutputUUID != ing1.OutputUUID {
		t.Fatalf("ingestion not adopted: %+v vs %+v", ing2, ing1)
	}
	if an2.ID != an1.ID || an2.OutputUUIDs[0] != an1.OutputUUIDs[0] {
		t.Fatalf("analysis not adopted: %+v vs %+v", an2, an1)
	}
	flows, _ = store.ListFlows()
	if len(flows) != 2 {
		t.Fatalf("re-registration duplicated flows: %d, want 2", len(flows))
	}
	data, _ := store.ListData()
	if len(data) != 3 {
		t.Fatalf("re-registration duplicated data identities: %d, want 3", len(data))
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStoreAt(t, dir)
	populate(t, s)
	want := saveJSON(t, s)
	// This last mutation gets torn and must disappear on recovery.
	if _, err := s.CreateData("ww/torn", ""); err != nil {
		t.Fatal(err)
	}
	s.wal.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	s2 := openStoreAt(t, dir)
	defer s2.wal.Close()
	if got := saveJSON(t, s2); got != want {
		t.Fatalf("torn-tail recovery differs:\n got %s\nwant %s", got, want)
	}
}
