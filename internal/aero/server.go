package aero

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"osprey/internal/globus"
	"osprey/internal/obs"
)

// Server exposes a metadata Store over HTTP. Only metadata crosses this
// API — never data bytes — preserving AERO's central design property.
//
// Routes:
//
//	POST /data                 {name, source_url}        -> DataRecord
//	GET  /data                                           -> []DataRecord
//	GET  /data/{uuid}                                    -> DataRecord
//	POST /data/{uuid}/versions Version                   -> DataRecord
//	GET  /data/{uuid}/provenance                         -> []ProvenanceEdge
//	POST /flows                FlowRecord                -> FlowRecord
//	GET  /flows                                          -> []FlowRecord
//	GET  /flows/{id}                                     -> FlowRecord
//	POST /flows/{id}/runs      {at}                      -> 204
//	POST /provenance           ProvenanceEdge            -> 204
//	GET  /watch?uuid=&timeout=&buffer=                   -> SSE stream (406 without Accept: text/event-stream)
//	GET  /healthz                                        -> 200 "ok"
//	GET  /metrics                                        -> obs.Snapshot JSON
//	GET  /trace                                          -> obs.TraceSnapshot JSON
//	POST /admin/compact                                  -> 204 (501 without WAL)
//
// With SetAuth installed, every route except /healthz, /metrics, and
// /trace requires a bearer token carrying globus.ScopeAero; the token's
// identity is the tenant whose namespace the request operates in. With
// SetQuotas installed, mutating requests are admission-metered per tenant
// (429 + Retry-After on a dry bucket). Without either, the server is the
// legacy single-tenant API, byte-identical to what it always was.
type Server struct {
	store   *Store
	mux     *http.ServeMux
	compact func() error // set by SetCompact; nil = persistence disabled
	auth    *globus.Auth // set by SetAuth; nil = single-tenant, no auth
	quotas  *Quotas      // set by SetQuotas; nil = unmetered
}

// NewServer wraps a store in the HTTP API.
func NewServer(store *Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("/data", s.handleData)
	s.mux.HandleFunc("/data/", s.handleDataItem)
	s.mux.HandleFunc("/flows", s.handleFlows)
	s.mux.HandleFunc("/flows/", s.handleFlowItem)
	s.mux.HandleFunc("/provenance", s.handleProvenance)
	s.mux.HandleFunc("/watch", s.handleWatch)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	s.mux.Handle("/metrics", obs.Default().Handler())
	s.mux.Handle("/trace", obs.DefaultTracer().Handler())
	s.mux.HandleFunc("/admin/compact", s.handleCompact)
	return s
}

// SetAuth turns on bearer-token authentication: requests must present a
// token Validate accepts for globus.ScopeAero, and the token's identity
// becomes the request's tenant namespace.
func (s *Server) SetAuth(a *globus.Auth) { s.auth = a }

// SetQuotas installs per-tenant admission metering on mutating routes.
func (s *Server) SetQuotas(q *Quotas) { s.quotas = q }

// SetCompact installs the snapshot+truncate hook behind POST
// /admin/compact (typically Store.Compact, or a closure compacting every
// WAL the process owns). Without it the route answers 501.
func (s *Server) SetCompact(fn func() error) { s.compact = fn }

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.compact == nil {
		http.Error(w, "aero: persistence not enabled (no -data-dir)", http.StatusNotImplemented)
		return
	}
	if err := s.compact(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ServeHTTP implements http.Handler: count and time every request, then
// run the auth and quota middleware before routing. Auth and quotas live
// HERE, once, in front of the mux — handlers never re-check them.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mHTTPRequests.Inc()
	start := time.Now()
	defer mHTTPRequest.ObserveSince(start)

	if !openRoute(r.URL.Path) {
		if s.auth != nil {
			tenant, ok := s.authenticate(w, r)
			if !ok {
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), tenantKey, tenant))
		}
		if s.quotas != nil {
			if class := quotaClass(r); class != "" {
				ok, retry := s.quotas.Allow(tenantFrom(r), class)
				if !ok {
					w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
					http.Error(w, "quota exceeded for class "+class, http.StatusTooManyRequests)
					return
				}
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

// openRoute lists the paths that skip auth and quotas: liveness and
// observability, which operators scrape without tenant credentials.
func openRoute(path string) bool {
	return path == "/healthz" || path == "/metrics" || path == "/trace"
}

// authenticate resolves the request's tenant from its bearer token,
// writing the 401/403 itself when the credential fails.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (string, bool) {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if !strings.HasPrefix(h, prefix) {
		mAuthRejected.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="aero"`)
		http.Error(w, "missing bearer token", http.StatusUnauthorized)
		return "", false
	}
	tok, err := s.auth.Validate(strings.TrimPrefix(h, prefix), globus.ScopeAero)
	if err != nil {
		mAuthRejected.Inc()
		code := http.StatusUnauthorized
		if errors.Is(err, globus.ErrForbidden) {
			code = http.StatusForbidden
		}
		http.Error(w, err.Error(), code)
		return "", false
	}
	return tok.Identity, true
}

// quotaClass maps a request to its admission class ("" = unmetered).
// Reads are free; the metered classes are the mutation paths.
func quotaClass(r *http.Request) string {
	if r.Method != http.MethodPost {
		return ""
	}
	p := r.URL.Path
	switch {
	case p == "/data",
		strings.HasPrefix(p, "/data/") && strings.HasSuffix(p, "/versions"):
		return QuotaIngest
	case p == "/flows",
		strings.HasPrefix(p, "/flows/") && strings.HasSuffix(p, "/runs"),
		p == "/provenance":
		return QuotaAnalysis
	}
	return ""
}

// tenantKey carries the authenticated tenant through the request context.
type ctxKey int

const tenantKey ctxKey = iota

func tenantFrom(r *http.Request) string {
	t, _ := r.Context().Value(tenantKey).(string)
	return t
}

// viewOf returns the metadata view the request operates in: the
// authenticated tenant's namespace, or the legacy "" namespace when auth
// is off (tenantFrom returns "" then, and Tenant("") IS the legacy API).
func (s *Server) viewOf(r *http.Request) *TenantView {
	return s.store.Tenant(tenantFrom(r))
}

// maxBodyBytes caps every JSON request body; metadata records are small,
// so anything near this is hostile or broken.
const maxBodyBytes = 1 << 20

// decodeJSON reads one JSON value from a capped request body, rejecting
// trailing data. Every POST handler decodes through here.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("aero: trailing data after JSON body")
	}
	return nil
}

// writeBodyErr maps decodeJSON failures: an over-cap body is 413,
// anything else malformed is 400.
func writeBodyErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ErrNotFound) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		recs, err := s.viewOf(r).ListData()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, recs)
	case http.MethodPost:
		var req struct {
			Name      string `json:"name"`
			SourceURL string `json:"source_url"`
		}
		if err := decodeJSON(w, r, &req); err != nil {
			writeBodyErr(w, err)
			return
		}
		rec, err := s.viewOf(r).CreateData(req.Name, req.SourceURL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusCreated, rec)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleDataItem(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/data/")
	parts := strings.Split(rest, "/")
	uuid := parts[0]
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		rec, err := s.viewOf(r).GetData(uuid)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	case len(parts) == 2 && parts[1] == "versions" && r.Method == http.MethodPost:
		var v Version
		if err := decodeJSON(w, r, &v); err != nil {
			writeBodyErr(w, err)
			return
		}
		rec, err := s.viewOf(r).AppendVersion(uuid, v)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, rec)
	case len(parts) == 2 && parts[1] == "provenance" && r.Method == http.MethodGet:
		edges, err := s.viewOf(r).Provenance(uuid)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, edges)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		flows, err := s.viewOf(r).ListFlows()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, flows)
	case http.MethodPost:
		var rec FlowRecord
		if err := decodeJSON(w, r, &rec); err != nil {
			writeBodyErr(w, err)
			return
		}
		out, err := s.viewOf(r).CreateFlow(rec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusCreated, out)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleFlowItem(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/flows/")
	parts := strings.Split(rest, "/")
	id := parts[0]
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		rec, err := s.viewOf(r).GetFlow(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	case len(parts) == 2 && parts[1] == "runs" && r.Method == http.MethodPost:
		var req struct {
			At time.Time `json:"at"`
		}
		if err := decodeJSON(w, r, &req); err != nil {
			writeBodyErr(w, err)
			return
		}
		if err := s.viewOf(r).RecordRun(id, req.At); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var edge ProvenanceEdge
	if err := decodeJSON(w, r, &edge); err != nil {
		writeBodyErr(w, err)
		return
	}
	if err := s.viewOf(r).AddProvenance(edge); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Client is the HTTP implementation of Metadata, so a Platform can run
// against a remote AERO server exactly as it does against a local Store.
// Token, when set, is presented as a bearer credential on every request —
// required against a server running with SetAuth, where it selects the
// tenant namespace the client operates in.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Token   string
}

// NewClient points a metadata client at an AERO server.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/"), HTTP: http.DefaultClient}
}

var _ Metadata = (*Client)(nil)

func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%w: %s", ErrNotFound, strings.TrimSpace(string(msg)))
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("aero: server %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// CreateData implements Metadata.
func (c *Client) CreateData(name, sourceURL string) (*DataRecord, error) {
	var rec DataRecord
	err := c.do(http.MethodPost, "/data", map[string]string{"name": name, "source_url": sourceURL}, &rec)
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// GetData implements Metadata.
func (c *Client) GetData(uuid string) (*DataRecord, error) {
	var rec DataRecord
	if err := c.do(http.MethodGet, "/data/"+uuid, nil, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// AppendVersion implements Metadata.
func (c *Client) AppendVersion(uuid string, v Version) (*DataRecord, error) {
	var rec DataRecord
	if err := c.do(http.MethodPost, "/data/"+uuid+"/versions", v, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// ListData implements Metadata.
func (c *Client) ListData() ([]*DataRecord, error) {
	var recs []*DataRecord
	if err := c.do(http.MethodGet, "/data", nil, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// CreateFlow implements Metadata.
func (c *Client) CreateFlow(rec FlowRecord) (*FlowRecord, error) {
	var out FlowRecord
	if err := c.do(http.MethodPost, "/flows", rec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetFlow implements Metadata.
func (c *Client) GetFlow(id string) (*FlowRecord, error) {
	var out FlowRecord
	if err := c.do(http.MethodGet, "/flows/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListFlows implements Metadata.
func (c *Client) ListFlows() ([]*FlowRecord, error) {
	var out []*FlowRecord
	if err := c.do(http.MethodGet, "/flows", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RecordRun implements Metadata.
func (c *Client) RecordRun(flowID string, at time.Time) error {
	return c.do(http.MethodPost, "/flows/"+flowID+"/runs", map[string]time.Time{"at": at}, nil)
}

// AddProvenance implements Metadata.
func (c *Client) AddProvenance(edge ProvenanceEdge) error {
	return c.do(http.MethodPost, "/provenance", edge, nil)
}

// Provenance implements Metadata.
func (c *Client) Provenance(uuid string) ([]ProvenanceEdge, error) {
	var out []ProvenanceEdge
	if err := c.do(http.MethodGet, "/data/"+uuid+"/provenance", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
