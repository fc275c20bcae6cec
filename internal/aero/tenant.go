package aero

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Multi-tenant namespaces for the metadata store. Every data and flow
// identity carries its tenant as an ID prefix — "<tenant>:data-00000001" —
// and the legacy tenant "" keeps the unprefixed IDs, so single-tenant
// stores, snapshots, and WALs are byte-identical to what they were before
// tenancy existed. Isolation is enforced HERE, in the unexported
// tenant-parameterized store methods every API path funnels through (the
// public Store methods delegate with tenant ""; TenantView delegates with
// its tenant; the HTTP server picks the view from the authenticated
// identity) — never in individual handlers. A cross-tenant ID resolves to
// ErrNotFound, indistinguishable from a nonexistent one, so the namespace
// does not leak existence.

// tenantOf returns the tenant prefix of a namespaced ID — the part before
// the first ':' — or "" for a legacy unprefixed ID.
func tenantOf(id string) string {
	if i := strings.IndexByte(id, ':'); i >= 0 {
		return id[:i]
	}
	return ""
}

// tenantIDFor renders the ID a create op assigns in tenant's namespace.
func tenantIDFor(tenant, prefix string, seq int) string {
	if tenant == "" {
		return idFor(prefix, seq)
	}
	return tenant + ":" + idFor(prefix, seq)
}

// ErrBadTenant rejects tenant names that would break the ID grammar.
var ErrBadTenant = errors.New("aero: tenant name must not contain ':'")

// TenantView is the Metadata surface of one tenant's namespace: the same
// Store, every read and write scoped to the tenant. It implements Metadata,
// so platforms and the HTTP server use it interchangeably with the Store.
type TenantView struct {
	s      *Store
	tenant string
}

// Tenant returns the store scoped to tenant's namespace. Tenant("")
// yields the legacy unprefixed namespace — exactly the public Store API.
func (s *Store) Tenant(tenant string) *TenantView {
	return &TenantView{s: s, tenant: tenant}
}

// Name reports which tenant the view is scoped to.
func (v *TenantView) Name() string { return v.tenant }

func (v *TenantView) CreateData(name, sourceURL string) (*DataRecord, error) {
	return v.s.createData(v.tenant, name, sourceURL)
}
func (v *TenantView) GetData(uuid string) (*DataRecord, error) {
	return v.s.getData(v.tenant, uuid)
}
func (v *TenantView) AppendVersion(uuid string, ver Version) (*DataRecord, error) {
	return v.s.appendVersion(v.tenant, uuid, ver)
}
func (v *TenantView) ListData() ([]*DataRecord, error) {
	return v.s.listData(v.tenant)
}
func (v *TenantView) CreateFlow(rec FlowRecord) (*FlowRecord, error) {
	return v.s.createFlow(v.tenant, rec)
}
func (v *TenantView) GetFlow(id string) (*FlowRecord, error) {
	return v.s.getFlow(v.tenant, id)
}
func (v *TenantView) ListFlows() ([]*FlowRecord, error) {
	return v.s.listFlows(v.tenant)
}
func (v *TenantView) RecordRun(flowID string, at time.Time) error {
	return v.s.recordRun(v.tenant, flowID, at)
}
func (v *TenantView) AddProvenance(edge ProvenanceEdge) error {
	return v.s.addProvenance(v.tenant, edge)
}
func (v *TenantView) Provenance(uuid string) ([]ProvenanceEdge, error) {
	return v.s.provenance(v.tenant, uuid)
}

// SubscribeUpdates opens a streaming watch over the view's namespace,
// optionally narrowed to one uuid (which must be in-namespace).
func (v *TenantView) SubscribeUpdates(uuid string, buffer int) (*Subscription, error) {
	return v.s.SubscribeUpdates(v.tenant, uuid, buffer)
}

// ownsLocked reports whether id exists in tenant's namespace; the tenant
// check comes first so a cross-tenant probe costs the same as a miss.
func owned(tenant, id string) bool { return tenantOf(id) == tenant }

// --- tenant-parameterized store core -----------------------------------
//
// These are the single enforcement point: every public Store method and
// every TenantView method lands here with an explicit tenant, and the
// namespace checks (ID prefix on reads, counter selection on creates,
// edge endpoints on provenance) happen once.

// seqLocked returns tenant's next ID-counter value. The caller holds s.mu.
func (s *Store) seqLocked(tenant string) int {
	if tenant == "" {
		return s.next + 1
	}
	return s.nextT[tenant] + 1
}

// bumpSeqLocked advances tenant's counter to at least seq — the
// applyLocked half of ID allocation, replay-safe because the consumed
// value rides in the mutation record. The caller holds s.mu.
func (s *Store) bumpSeqLocked(tenant string, seq int) {
	if tenant == "" {
		if seq > s.next {
			s.next = seq
		}
		return
	}
	if s.nextT == nil {
		s.nextT = map[string]int{}
	}
	if seq > s.nextT[tenant] {
		s.nextT[tenant] = seq
	}
}

func (s *Store) createData(tenant, name, sourceURL string) (*DataRecord, error) {
	if name == "" {
		return nil, errors.New("aero: data name required")
	}
	if strings.ContainsRune(tenant, ':') {
		return nil, ErrBadTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seqLocked(tenant)
	m := &mutation{Op: opCreateData, Seq: seq, UUID: tenantIDFor(tenant, "data", seq), Name: name, SourceURL: sourceURL}
	if err := s.commitLocked(m); err != nil {
		return nil, err
	}
	return cloneData(s.data[m.UUID]), nil
}

func (s *Store) getData(tenant, uuid string) (*DataRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.data[uuid]
	if !ok || !owned(tenant, uuid) {
		return nil, fmt.Errorf("%w: data %s", ErrNotFound, uuid)
	}
	return cloneData(rec), nil
}

func (s *Store) appendVersion(tenant, uuid string, v Version) (*DataRecord, error) {
	s.mu.Lock()
	rec, ok := s.data[uuid]
	if !ok || !owned(tenant, uuid) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: data %s", ErrNotFound, uuid)
	}
	v.Num = len(rec.Versions) + 1
	if v.Timestamp.IsZero() {
		v.Timestamp = time.Now()
	}
	if err := s.commitLocked(&mutation{Op: opAppendVersion, UUID: uuid, Version: &v}); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	out := cloneData(rec)
	s.mu.Unlock()
	// Live-path side effect, outside applyLocked so WAL replay never
	// re-publishes, and outside s.mu so slow fan-out never blocks commits.
	s.hub.publish(DataUpdate{UUID: uuid, Version: v.Num, Time: v.Timestamp})
	return out, nil
}

func (s *Store) listData(tenant string) ([]*DataRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*DataRecord, 0, len(s.data))
	for _, rec := range s.data {
		if owned(tenant, rec.UUID) {
			out = append(out, cloneData(rec))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UUID < out[j].UUID })
	return out, nil
}

func (s *Store) createFlow(tenant string, rec FlowRecord) (*FlowRecord, error) {
	if rec.Name == "" {
		return nil, errors.New("aero: flow name required")
	}
	if strings.ContainsRune(tenant, ':') {
		return nil, ErrBadTenant
	}
	for _, u := range rec.InputUUIDs {
		if !owned(tenant, u) {
			return nil, fmt.Errorf("%w: data %s", ErrNotFound, u)
		}
	}
	for _, u := range rec.OutputUUIDs {
		if !owned(tenant, u) {
			return nil, fmt.Errorf("%w: data %s", ErrNotFound, u)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seqLocked(tenant)
	rec.ID = tenantIDFor(tenant, "flow", seq)
	if err := s.commitLocked(&mutation{Op: opCreateFlow, Seq: seq, Flow: &rec}); err != nil {
		return nil, err
	}
	out := rec
	return &out, nil
}

func (s *Store) getFlow(tenant, id string) (*FlowRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.flows[id]
	if !ok || !owned(tenant, id) {
		return nil, fmt.Errorf("%w: flow %s", ErrNotFound, id)
	}
	cp := *f
	return &cp, nil
}

func (s *Store) listFlows(tenant string) ([]*FlowRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*FlowRecord, 0, len(s.flows))
	for _, f := range s.flows {
		if owned(tenant, f.ID) {
			cp := *f
			out = append(out, &cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (s *Store) recordRun(tenant, flowID string, at time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.flows[flowID]; !ok || !owned(tenant, flowID) {
		return fmt.Errorf("%w: flow %s", ErrNotFound, flowID)
	}
	return s.commitLocked(&mutation{Op: opRecordRun, FlowID: flowID, At: at})
}

func (s *Store) addProvenance(tenant string, edge ProvenanceEdge) error {
	// Every endpoint of the edge must live in the tenant's namespace —
	// provenance is the one structure that references IDs by value, so an
	// unchecked edge would smuggle foreign IDs into a tenant's lineage.
	if !owned(tenant, edge.InputUUID) || !owned(tenant, edge.OutputUUID) || !owned(tenant, edge.FlowID) {
		return fmt.Errorf("%w: provenance edge crosses tenant boundary", ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(&mutation{Op: opAddProvenance, Edge: &edge})
}

func (s *Store) provenance(tenant, uuid string) ([]ProvenanceEdge, error) {
	if !owned(tenant, uuid) {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ProvenanceEdge
	for _, e := range s.prov {
		if e.InputUUID == uuid || e.OutputUUID == uuid {
			out = append(out, e)
		}
	}
	return out, nil
}

// SubscribeUpdates opens a streaming watch scoped to tenant's namespace:
// only updates of the tenant's data are delivered. Empty uuid watches the
// whole namespace; a non-empty uuid must belong to the tenant. Updates are
// published by live AppendVersion commits (never by WAL replay). Cancel
// the subscription when done.
func (s *Store) SubscribeUpdates(tenant, uuid string, buffer int) (*Subscription, error) {
	if uuid != "" && !owned(tenant, uuid) {
		return nil, fmt.Errorf("%w: data %s", ErrNotFound, uuid)
	}
	return s.hub.subscribe(tenant, uuid, buffer), nil
}

// Tenants lists every tenant that has created an identity, legacy ""
// excluded, sorted.
func (s *Store) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nextT))
	for t := range s.nextT {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
