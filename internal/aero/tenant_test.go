package aero

import (
	"errors"
	"strings"
	"testing"
	"time"

	"osprey/internal/wal"
)

func TestTenantNamespaceIsolation(t *testing.T) {
	store := NewStore()
	alice := store.Tenant("alice")
	bob := store.Tenant("bob")

	ad, err := alice.CreateData("wastewater", "src://a")
	if err != nil {
		t.Fatal(err)
	}
	bd, err := bob.CreateData("wastewater", "src://b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ad.UUID, "alice:data-") || !strings.HasPrefix(bd.UUID, "bob:data-") {
		t.Fatalf("tenant IDs not namespaced: %s / %s", ad.UUID, bd.UUID)
	}

	// Cross-tenant reads are ErrNotFound — indistinguishable from a miss.
	if _, err := bob.GetData(ad.UUID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant GetData = %v, want ErrNotFound", err)
	}
	if _, err := bob.AppendVersion(ad.UUID, Version{Checksum: "x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant AppendVersion = %v, want ErrNotFound", err)
	}
	if _, err := alice.GetData(ad.UUID); err != nil {
		t.Fatalf("own-tenant GetData: %v", err)
	}

	// Listings are scoped; the legacy "" view sees neither tenant.
	if recs, _ := alice.ListData(); len(recs) != 1 || recs[0].UUID != ad.UUID {
		t.Fatalf("alice ListData = %+v", recs)
	}
	if recs, _ := store.ListData(); len(recs) != 0 {
		t.Fatalf("legacy ListData sees tenant data: %+v", recs)
	}

	// Flows are namespaced the same way.
	af, err := alice.CreateFlow(FlowRecord{Name: "rt", OutputUUIDs: []string{ad.UUID}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(af.ID, "alice:flow-") {
		t.Fatalf("flow ID not namespaced: %s", af.ID)
	}
	if _, err := bob.GetFlow(af.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant GetFlow = %v, want ErrNotFound", err)
	}
	if err := bob.RecordRun(af.ID, time.Now()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant RecordRun = %v, want ErrNotFound", err)
	}

	// A flow may not reference another tenant's data.
	if _, err := bob.CreateFlow(FlowRecord{Name: "steal", InputUUIDs: []string{ad.UUID}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("flow referencing foreign data = %v, want ErrNotFound", err)
	}

	// Provenance edges must stay inside the namespace.
	bad := ProvenanceEdge{FlowID: af.ID, InputUUID: ad.UUID, OutputUUID: bd.UUID}
	if err := alice.AddProvenance(bad); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant provenance = %v, want ErrNotFound", err)
	}
	good := ProvenanceEdge{FlowID: af.ID, InputUUID: ad.UUID, OutputUUID: ad.UUID}
	if err := alice.AddProvenance(good); err != nil {
		t.Fatal(err)
	}
	if edges, _ := bob.Provenance(ad.UUID); len(edges) != 0 {
		t.Fatalf("cross-tenant Provenance leaked %d edges", len(edges))
	}
	if edges, _ := alice.Provenance(ad.UUID); len(edges) != 1 {
		t.Fatalf("own-tenant Provenance = %d edges, want 1", len(edges))
	}
}

func TestTenantCountersIndependent(t *testing.T) {
	store := NewStore()
	a1, _ := store.Tenant("alice").CreateData("a1", "")
	b1, _ := store.Tenant("bob").CreateData("b1", "")
	l1, _ := store.CreateData("l1", "")
	if a1.UUID != "alice:data-00000001" || b1.UUID != "bob:data-00000001" || l1.UUID != "data-00000001" {
		t.Fatalf("counters not independent: %s %s %s", a1.UUID, b1.UUID, l1.UUID)
	}
	if got := store.Tenants(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Tenants() = %v", got)
	}
}

func TestTenantNameValidation(t *testing.T) {
	store := NewStore()
	if _, err := store.Tenant("a:b").CreateData("x", ""); !errors.Is(err, ErrBadTenant) {
		t.Fatalf("colon tenant accepted: %v", err)
	}
	if _, err := store.Tenant("a:b").CreateFlow(FlowRecord{Name: "f"}); !errors.Is(err, ErrBadTenant) {
		t.Fatalf("colon tenant flow accepted: %v", err)
	}
}

func TestTenantWALRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(l)
	if err != nil {
		t.Fatal(err)
	}
	ad, _ := store.Tenant("alice").CreateData("a", "")
	if _, err := store.Tenant("alice").AppendVersion(ad.UUID, Version{Checksum: "c1"}); err != nil {
		t.Fatal(err)
	}
	bd, _ := store.Tenant("bob").CreateData("b", "")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	re, err := OpenStore(l2)
	if err != nil {
		t.Fatal(err)
	}
	// State and isolation survive replay.
	rec, err := re.Tenant("alice").GetData(ad.UUID)
	if err != nil || len(rec.Versions) != 1 {
		t.Fatalf("recovered alice data: %+v, %v", rec, err)
	}
	if _, err := re.Tenant("alice").GetData(bd.UUID); !errors.Is(err, ErrNotFound) {
		t.Fatal("isolation lost after replay")
	}
	// Counters continue where each tenant left off.
	a2, _ := re.Tenant("alice").CreateData("a2", "")
	if a2.UUID != "alice:data-00000002" {
		t.Fatalf("alice counter after replay: %s", a2.UUID)
	}
	b2, _ := re.Tenant("bob").CreateData("b2", "")
	if b2.UUID != "bob:data-00000002" {
		t.Fatalf("bob counter after replay: %s", b2.UUID)
	}
}

func TestTenantSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := openStoreAt(t, dir)
	ad, _ := store.Tenant("alice").CreateData("a", "")
	snap, re := compactReopen(t, store, dir)
	if !strings.Contains(string(snap), "next_tenants") {
		t.Fatal("tenant counters missing from snapshot")
	}
	if _, err := re.Tenant("alice").GetData(ad.UUID); err != nil {
		t.Fatal(err)
	}
	a2, _ := re.Tenant("alice").CreateData("a2", "")
	if a2.UUID != "alice:data-00000002" {
		t.Fatalf("counter after load: %s", a2.UUID)
	}
}

func TestLegacySnapshotUnchanged(t *testing.T) {
	// A store that never saw a tenant must serialize exactly as before
	// tenancy existed: no next_tenants key, unprefixed IDs.
	dir := t.TempDir()
	store := openStoreAt(t, dir)
	d, _ := store.CreateData("legacy", "")
	if snap, _ := compactReopen(t, store, dir); strings.Contains(string(snap), "next_tenants") {
		t.Fatal("legacy snapshot grew a next_tenants key")
	}
	if d.UUID != "data-00000001" {
		t.Fatalf("legacy ID changed: %s", d.UUID)
	}
}

func TestSubscribeUpdatesTenantScoping(t *testing.T) {
	store := NewStore()
	alice := store.Tenant("alice")
	bob := store.Tenant("bob")
	ad, _ := alice.CreateData("a", "")
	bd, _ := bob.CreateData("b", "")

	sub, err := alice.SubscribeUpdates("", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	if _, err := alice.AppendVersion(ad.UUID, Version{Checksum: "a1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.AppendVersion(bd.UUID, Version{Checksum: "b1"}); err != nil {
		t.Fatal(err)
	}
	events, dropped, ok := sub.Next(time.Second)
	if !ok || dropped != 0 {
		t.Fatalf("Next: ok=%v dropped=%d", ok, dropped)
	}
	if len(events) != 1 || events[0].UUID != ad.UUID || events[0].Version != 1 {
		t.Fatalf("scoped subscription got %+v", events)
	}
	// Subscribing to a foreign uuid is refused like any cross-tenant read.
	if _, err := store.SubscribeUpdates("bob", ad.UUID, 8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant subscribe = %v", err)
	}
}

func TestSubscriptionDropOldest(t *testing.T) {
	store := NewStore()
	d, _ := store.CreateData("hot", "")
	sub, err := store.SubscribeUpdates("", d.UUID, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		if _, err := store.AppendVersion(d.UUID, Version{Checksum: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	events, dropped, ok := sub.Next(time.Second)
	if !ok {
		t.Fatal("subscription closed")
	}
	// Bounded queue of 2: the newest two versions survive, three dropped.
	if len(events) != 2 || dropped != 3 {
		t.Fatalf("got %d events, %d dropped; want 2, 3", len(events), dropped)
	}
	if events[0].Version != 4 || events[1].Version != 5 {
		t.Fatalf("drop-oldest kept versions %d,%d; want 4,5", events[0].Version, events[1].Version)
	}
	if events[0].Seq >= events[1].Seq {
		t.Fatalf("sequence not increasing: %d, %d", events[0].Seq, events[1].Seq)
	}
	if sub.Dropped() != 3 {
		t.Fatalf("Dropped() = %d", sub.Dropped())
	}
}

func TestWALReplayDoesNotPublish(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	store, _ := OpenStore(l)
	d, _ := store.CreateData("quiet", "")
	if _, err := store.AppendVersion(d.UUID, Version{Checksum: "c1"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := wal.Open(dir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	re, err := OpenStore(l2)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := re.SubscribeUpdates("", "", 8)
	defer sub.Cancel()
	if events, _, _ := sub.Next(0); len(events) != 0 {
		t.Fatalf("replay published %d events", len(events))
	}
	// A fresh live append does publish.
	if _, err := re.AppendVersion(d.UUID, Version{Checksum: "c2"}); err != nil {
		t.Fatal(err)
	}
	events, _, _ := sub.Next(time.Second)
	if len(events) != 1 || events[0].Version != 2 {
		t.Fatalf("live publish after recovery: %+v", events)
	}
}
