// Package aero implements the Automated Event-based Research Orchestration
// platform of §2: a central metadata service plus distributed, user-owned
// storage and compute ("bring your own storage and compute"). Ingestion
// flows poll external data sources, validate/transform updates on a compute
// endpoint, store raw and derived data on storage endpoints, and version
// everything (checksum, timestamp, version number) in the metadata store.
// Analysis flows register data UUIDs as inputs and are triggered when those
// inputs update, with either any- or all-inputs policies. Data never passes
// through the AERO server — only metadata does.
package aero

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"osprey/internal/wal"
)

// Version records one immutable version of a data item.
type Version struct {
	Num       int       `json:"num"`
	Checksum  string    `json:"checksum"`
	Timestamp time.Time `json:"timestamp"`
	Size      int       `json:"size"`
	// Storage coordinates (endpoint/collection/path) of the bytes. The
	// metadata store never holds the data itself.
	Endpoint   string `json:"endpoint"`
	Collection string `json:"collection"`
	Path       string `json:"path"`
}

// DataRecord is the metadata identity of a data item across its versions.
type DataRecord struct {
	UUID      string    `json:"uuid"`
	Name      string    `json:"name"`
	SourceURL string    `json:"source_url,omitempty"` // set for ingested raw data
	Versions  []Version `json:"versions"`
}

// Latest returns the newest version, or nil if none exist.
func (d *DataRecord) Latest() *Version {
	if len(d.Versions) == 0 {
		return nil
	}
	return &d.Versions[len(d.Versions)-1]
}

// FlowKind distinguishes ingestion from analysis flows.
type FlowKind int

const (
	// IngestionKind flows poll an external source.
	IngestionKind FlowKind = iota
	// AnalysisKind flows consume registered data UUIDs.
	AnalysisKind
)

func (k FlowKind) String() string {
	if k == IngestionKind {
		return "ingestion"
	}
	return "analysis"
}

// FlowRecord is the metadata registration of a flow.
type FlowRecord struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Kind        FlowKind  `json:"kind"`
	InputUUIDs  []string  `json:"input_uuids,omitempty"`
	OutputUUIDs []string  `json:"output_uuids"`
	Runs        int       `json:"runs"`
	LastRun     time.Time `json:"last_run,omitempty"`
}

// ProvenanceEdge records that an output version was derived from an input
// version by a flow run.
type ProvenanceEdge struct {
	FlowID        string    `json:"flow_id"`
	InputUUID     string    `json:"input_uuid"`
	InputVersion  int       `json:"input_version"`
	OutputUUID    string    `json:"output_uuid"`
	OutputVersion int       `json:"output_version"`
	Timestamp     time.Time `json:"timestamp"`
}

// Metadata is the API surface of the AERO metadata service. It is
// implemented by the in-process Store and by the HTTP Client, so platforms
// can run against a local or remote server interchangeably.
type Metadata interface {
	CreateData(name, sourceURL string) (*DataRecord, error)
	GetData(uuid string) (*DataRecord, error)
	AppendVersion(uuid string, v Version) (*DataRecord, error)
	ListData() ([]*DataRecord, error)

	CreateFlow(rec FlowRecord) (*FlowRecord, error)
	GetFlow(id string) (*FlowRecord, error)
	ListFlows() ([]*FlowRecord, error)
	RecordRun(flowID string, at time.Time) error

	AddProvenance(edge ProvenanceEdge) error
	Provenance(uuid string) ([]ProvenanceEdge, error)
}

// ErrNotFound is returned for unknown UUIDs and flow IDs.
var ErrNotFound = errors.New("aero: not found")

// Store is the in-process metadata database. It is safe for concurrent use.
// Every mutation flows through a typed mutation record (see durable.go);
// when a WAL is attached the record is persisted before it is applied, and
// crash recovery replays the same records through the same transition
// function.
type Store struct {
	mu    sync.RWMutex
	next  int            // legacy-tenant ("") ID counter
	nextT map[string]int // per-tenant ID counters (see tenant.go)
	data  map[string]*DataRecord
	flows map[string]*FlowRecord
	prov  []ProvenanceEdge
	wal   *wal.Log  // set by OpenStore; nil = in-memory only (the default)
	hub   *watchHub // streaming watch fan-out, fed by live AppendVersion
}

// NewStore creates an empty, in-memory metadata store.
func NewStore() *Store {
	return &Store{
		data:  map[string]*DataRecord{},
		flows: map[string]*FlowRecord{},
		nextT: map[string]int{},
		hub:   newWatchHub(),
	}
}

// idFor renders the ID a create op with counter value seq is assigned.
func idFor(prefix string, seq int) string {
	return fmt.Sprintf("%s-%08d", prefix, seq)
}

// The public Store methods are the legacy-tenant ("") view of the
// tenant-parameterized core in tenant.go — the single place namespace
// isolation is enforced. They keep their historical signatures and
// behavior exactly.

// CreateData registers a new data identity and returns its record.
func (s *Store) CreateData(name, sourceURL string) (*DataRecord, error) {
	return s.createData("", name, sourceURL)
}

// GetData returns a copy of the record for uuid.
func (s *Store) GetData(uuid string) (*DataRecord, error) {
	return s.getData("", uuid)
}

// AppendVersion adds a version with the next version number. The Num field
// of v is assigned by the store.
func (s *Store) AppendVersion(uuid string, v Version) (*DataRecord, error) {
	return s.appendVersion("", uuid, v)
}

// ListData returns copies of all records sorted by UUID.
func (s *Store) ListData() ([]*DataRecord, error) {
	return s.listData("")
}

// CreateFlow registers a flow; the ID is assigned by the store.
func (s *Store) CreateFlow(rec FlowRecord) (*FlowRecord, error) {
	return s.createFlow("", rec)
}

// GetFlow returns a copy of the flow record.
func (s *Store) GetFlow(id string) (*FlowRecord, error) {
	return s.getFlow("", id)
}

// ListFlows returns copies of all flows sorted by ID.
func (s *Store) ListFlows() ([]*FlowRecord, error) {
	return s.listFlows("")
}

// RecordRun increments a flow's run counter.
func (s *Store) RecordRun(flowID string, at time.Time) error {
	return s.recordRun("", flowID, at)
}

// AddProvenance appends a derivation edge.
func (s *Store) AddProvenance(edge ProvenanceEdge) error {
	return s.addProvenance("", edge)
}

// Provenance returns the edges touching uuid (as input or output).
func (s *Store) Provenance(uuid string) ([]ProvenanceEdge, error) {
	return s.provenance("", uuid)
}

// Lineage walks provenance edges backward from uuid, returning every
// ancestor data UUID (deduplicated, breadth-first).
func (s *Store) Lineage(uuid string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{uuid: true}
	queue := []string{uuid}
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range s.prov {
			if e.OutputUUID == cur && !seen[e.InputUUID] {
				seen[e.InputUUID] = true
				out = append(out, e.InputUUID)
				queue = append(queue, e.InputUUID)
			}
		}
	}
	return out, nil
}

type storeSnapshot struct {
	Next int `json:"next"`
	// NextT holds per-tenant ID counters; omitted while empty so legacy
	// single-tenant snapshots stay byte-identical.
	NextT map[string]int   `json:"next_tenants,omitempty"`
	Data  []*DataRecord    `json:"data"`
	Flows []*FlowRecord    `json:"flows"`
	Prov  []ProvenanceEdge `json:"provenance"`
}

// snapshotLocked captures the full store state. The caller holds s.mu (at
// least for reading).
func (s *Store) snapshotLocked() storeSnapshot {
	snap := storeSnapshot{Next: s.next, Prov: append([]ProvenanceEdge(nil), s.prov...)}
	if len(s.nextT) > 0 {
		snap.NextT = make(map[string]int, len(s.nextT))
		for t, n := range s.nextT {
			snap.NextT[t] = n
		}
	}
	for _, d := range s.data {
		snap.Data = append(snap.Data, cloneData(d))
	}
	for _, f := range s.flows {
		cp := *f
		snap.Flows = append(snap.Flows, &cp)
	}
	sort.Slice(snap.Data, func(i, j int) bool { return snap.Data[i].UUID < snap.Data[j].UUID })
	sort.Slice(snap.Flows, func(i, j int) bool { return snap.Flows[i].ID < snap.Flows[j].ID })
	return snap
}

func cloneData(d *DataRecord) *DataRecord {
	cp := *d
	cp.Versions = append([]Version(nil), d.Versions...)
	return &cp
}
