package aero

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"osprey/internal/globus"
)

// authedRig is an HTTP server with auth enabled and one token per tenant.
type authedRig struct {
	srv    *httptest.Server
	auth   *globus.Auth
	tokens map[string]*globus.Token
	aero   *Server
	store  *Store
}

func newAuthedRig(t *testing.T, tenants ...string) *authedRig {
	t.Helper()
	store := NewStore()
	s := NewServer(store)
	auth := globus.NewAuth()
	s.SetAuth(auth)
	rig := &authedRig{auth: auth, tokens: map[string]*globus.Token{}, aero: s, store: store}
	for _, tn := range tenants {
		rig.tokens[tn] = auth.Issue(tn, 0, globus.ScopeAero)
	}
	rig.srv = httptest.NewServer(s)
	t.Cleanup(rig.srv.Close)
	return rig
}

// request sends a JSON body with an optional bearer token and returns the
// response (caller closes nothing; body is drained into out).
func (rig *authedRig) request(t *testing.T, method, path, token string, body, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, rig.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestAuthMatrix(t *testing.T) {
	rig := newAuthedRig(t, "alice")
	wrongScope := rig.auth.Issue("carol", 0, globus.ScopeTransfer)
	expired := &globus.Token{ID: "tok-expired", Identity: "dave",
		Scopes: map[globus.Scope]bool{globus.ScopeAero: true},
		Expiry: time.Now().Add(-time.Minute)}
	if err := rig.auth.RegisterToken(expired); err != nil {
		t.Fatal(err)
	}
	revoked := rig.auth.Issue("erin", 0, globus.ScopeAero)
	rig.auth.Revoke(revoked.ID)

	cases := []struct {
		name  string
		token string
		want  int
	}{
		{"valid", rig.tokens["alice"].ID, http.StatusCreated},
		{"missing", "", http.StatusUnauthorized},
		{"unknown", "tok-bogus", http.StatusUnauthorized},
		{"expired", expired.ID, http.StatusUnauthorized},
		{"revoked", revoked.ID, http.StatusUnauthorized},
		{"wrong-scope", wrongScope.ID, http.StatusForbidden},
	}
	for _, tc := range cases {
		resp := rig.request(t, http.MethodPost, "/data", tc.token,
			map[string]string{"name": "probe-" + tc.name}, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s token: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Open routes need no credential even with auth on.
	for _, path := range []string{"/healthz", "/metrics", "/trace"} {
		resp := rig.request(t, http.MethodGet, path, "", nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("open route %s: status %d", path, resp.StatusCode)
		}
	}
}

func TestTenantIsolationEndToEnd(t *testing.T) {
	rig := newAuthedRig(t, "alice", "bob")
	var rec DataRecord
	resp := rig.request(t, http.MethodPost, "/data", rig.tokens["alice"].ID,
		map[string]string{"name": "private"}, &rec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if !strings.HasPrefix(rec.UUID, "alice:") {
		t.Fatalf("UUID %s not in alice's namespace", rec.UUID)
	}
	// Bob's token cannot see it; Alice's can.
	if resp := rig.request(t, http.MethodGet, "/data/"+rec.UUID, rig.tokens["bob"].ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant GET = %d, want 404", resp.StatusCode)
	}
	if resp := rig.request(t, http.MethodGet, "/data/"+rec.UUID, rig.tokens["alice"].ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("own GET = %d, want 200", resp.StatusCode)
	}
	// The Client type plumbs the token the same way.
	c := NewClient(rig.srv.URL)
	c.Token = rig.tokens["bob"].ID
	if _, err := c.GetData(rec.UUID); err == nil {
		t.Fatal("client cross-tenant read succeeded")
	}
	c.Token = rig.tokens["alice"].ID
	if _, err := c.GetData(rec.UUID); err != nil {
		t.Fatalf("client own read: %v", err)
	}
}

func TestOversizedBodyRejected413(t *testing.T) {
	// Regression: an oversized ingest body must be refused with 413, not
	// buffered into memory. Exercised on every POST route.
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	d, _ := store.CreateData("target", "")

	huge := strings.Repeat("x", maxBodyBytes+1024)
	body := fmt.Sprintf("{\"checksum\": %q}", huge)
	for _, path := range []string{"/data", "/data/" + d.UUID + "/versions", "/flows", "/provenance"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestTrailingJSONRejected(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/data", "application/json",
		strings.NewReader(`{"name":"a"}{"name":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing JSON: %d, want 400", resp.StatusCode)
	}
	// The first value must not have been applied either.
	if recs, _ := store.ListData(); len(recs) != 0 {
		t.Fatalf("trailing-data request partially applied: %d records", len(recs))
	}
}

func TestQuotaEndToEnd429(t *testing.T) {
	rig := newAuthedRig(t, "noisy", "quiet")
	clk := newFakeClock()
	q := NewQuotas()
	q.SetNow(clk.now)
	q.SetLimit(QuotaIngest, QuotaLimit{Rate: 1, Burst: 2})
	rig.aero.SetQuotas(q)

	post := func(token string) *http.Response {
		return rig.request(t, http.MethodPost, "/data", token,
			map[string]string{"name": "n"}, nil)
	}
	tok := rig.tokens["noisy"].ID
	for i := 0; i < 2; i++ {
		if resp := post(tok); resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst create %d: %d", i, resp.StatusCode)
		}
	}
	resp := post(tok)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	// The quiet tenant is unaffected, and reads are never metered.
	if resp := post(rig.tokens["quiet"].ID); resp.StatusCode != http.StatusCreated {
		t.Fatalf("quiet tenant throttled: %d", resp.StatusCode)
	}
	if resp := rig.request(t, http.MethodGet, "/data", tok, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("read metered: %d", resp.StatusCode)
	}
	// Honoring Retry-After admits the request.
	clk.advance(time.Duration(ra) * time.Second)
	if resp := post(tok); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-backoff create: %d", resp.StatusCode)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses frames off an event-stream body until fn returns false.
func readSSE(t *testing.T, sc *bufio.Scanner, fn func(sseEvent) bool) {
	t.Helper()
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" || ev.data != "" {
				if !fn(ev) {
					return
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	t.Fatal("SSE stream ended early")
}

func TestWatchSSEStreamsUpdates(t *testing.T) {
	rig := newAuthedRig(t, "alice")
	c := NewClient(rig.srv.URL)
	c.Token = rig.tokens["alice"].ID
	rec, err := c.CreateData("feed", "")
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, rig.srv.URL+"/watch?uuid="+rec.UUID, nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Authorization", "Bearer "+c.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	// The ready frame arrives before any update can be missed.
	readSSE(t, sc, func(ev sseEvent) bool {
		if ev.event != "ready" {
			t.Fatalf("first frame = %q", ev.event)
		}
		return false
	})
	for i := 0; i < 3; i++ {
		if _, err := c.AppendVersion(rec.UUID, Version{Checksum: fmt.Sprintf("c%d", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []sseUpdate
	readSSE(t, sc, func(ev sseEvent) bool {
		if ev.event != "update" {
			return true // skip keep-alives
		}
		var u sseUpdate
		if err := json.Unmarshal([]byte(ev.data), &u); err != nil {
			t.Fatal(err)
		}
		got = append(got, u)
		return len(got) < 3
	})
	for i, u := range got {
		if u.UUID != rec.UUID || u.Version != i+1 || u.Dropped != 0 {
			t.Fatalf("update %d = %+v", i, u)
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seq not increasing: %+v", got)
		}
	}
}

func TestWatchSSETenantScoped(t *testing.T) {
	rig := newAuthedRig(t, "alice", "bob")
	ca := NewClient(rig.srv.URL)
	ca.Token = rig.tokens["alice"].ID
	cb := NewClient(rig.srv.URL)
	cb.Token = rig.tokens["bob"].ID
	ar, _ := ca.CreateData("a", "")
	br, _ := cb.CreateData("b", "")

	req, _ := http.NewRequest(http.MethodGet, rig.srv.URL+"/watch", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Authorization", "Bearer "+ca.Token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readSSE(t, sc, func(ev sseEvent) bool { return ev.event != "ready" })

	if _, err := cb.AppendVersion(br.UUID, Version{Checksum: "bob1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.AppendVersion(ar.UUID, Version{Checksum: "alice1"}); err != nil {
		t.Fatal(err)
	}
	// The first (and only) update Alice's stream carries is her own:
	// Bob's earlier publish never crossed the namespace.
	readSSE(t, sc, func(ev sseEvent) bool {
		if ev.event != "update" {
			return true
		}
		var u sseUpdate
		if err := json.Unmarshal([]byte(ev.data), &u); err != nil {
			t.Fatal(err)
		}
		if u.UUID != ar.UUID {
			t.Fatalf("alice's stream carried %s", u.UUID)
		}
		return false
	})
}

func TestWatchRequiresEventStream(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	for _, accept := range []string{"", "application/json"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/watch?timeout=50ms", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("Accept %q: status %d, want 406", accept, resp.StatusCode)
		}
	}
	store.hub.mu.Lock()
	defer store.hub.mu.Unlock()
	if n := len(store.hub.subs); n != 0 {
		t.Fatalf("%d subscriptions left open by refused watches", n)
	}
}

func TestWatchBufferCapped(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/watch?buffer=1000000000", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	readSSE(t, bufio.NewScanner(resp.Body), func(ev sseEvent) bool { return ev.event != "ready" })

	store.hub.mu.Lock()
	defer store.hub.mu.Unlock()
	if len(store.hub.subs) != 1 {
		t.Fatalf("%d subscriptions, want 1", len(store.hub.subs))
	}
	for _, sub := range store.hub.subs {
		if sub.cap != watchMaxBuffer {
			t.Fatalf("subscriber queue bound %d, want the %d cap", sub.cap, watchMaxBuffer)
		}
	}
}
