package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/aero"
	"osprey/internal/emews"
	"osprey/internal/globus"
	"osprey/internal/obs"
	"osprey/internal/wal"
)

// Config shapes one harness run. The zero value is usable: every field
// has a default (see withDefaults). Seed plus the shape parameters fully
// determine the workload plan; see the package comment for the
// determinism contract.
type Config struct {
	Seed     uint64
	Duration time.Duration // workload window (drain time comes on top)
	Rate     float64       // task submissions per second (plan size)
	Workers  int           // worker goroutines popping through the chaos proxy
	Closed   bool          // closed-loop: pace submits by in-flight cap, not wall clock
	Window   int           // closed-loop in-flight cap; default 2×Workers

	// Shards sizes the task substrate: a group of max(Shards, 1) members,
	// each behind its own chaos proxy. One member is the single daemon
	// stack; two or more add consistent-hash routed submits, strided IDs
	// and one warm follower per member. Crash faults need one member;
	// shard-failover needs two or more — Run rejects mismatched schedules.
	Shards int

	TaskTypes []string      // task-type mix; workers are assigned round-robin
	FailFrac  float64       // fraction of tasks that fail at least once (<0 disables)
	WorkMean  time.Duration // mean simulated model work per attempt

	IngestRate    float64 // AERO data-version ingests per second, per tenant in tenant mode (<0 disables)
	IngestStreams int     // data items the ingests round-robin over (per tenant in tenant mode)

	// Tenants switches the AERO side to multi-tenant mode: the harness
	// issues one bearer token per tenant, wires token auth and per-tenant
	// token-bucket quotas into the metadata server, splits the ingest
	// plan into per-tenant private streams (tenant NoisyTenant ingests at
	// NoisyFactor× the base rate — the noisy neighbor), holds one
	// streaming watch subscription per tenant for the whole run, and
	// probes cross-tenant isolation while the workload is live. 0 runs
	// the legacy single-tenant mode: no auth, no quotas, plans
	// byte-identical to pre-tenancy runs.
	Tenants     int
	NoisyTenant int     // index of the noisy neighbor; default 0
	NoisyFactor float64 // noisy tenant's ingest-rate multiplier; default 3
	TenantQuota float64 // per-tenant ingest admission rate (req/s); default 2×IngestRate
	TenantBurst float64 // per-tenant token-bucket burst; default 12

	ScrapeEvery time.Duration // metrics-scrape interval

	DataDir string // WAL root; "" = private temp dir, removed when the run passes
	Faults  []FaultEvent

	DrainTimeout time.Duration // max wait for the queue to empty after the plan
	Logf         func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Duration < minDuration {
		c.Duration = minDuration
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if len(c.TaskTypes) == 0 {
		c.TaskTypes = []string{"sim", "calibrate"}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Workers < len(c.TaskTypes) {
		c.Workers = len(c.TaskTypes) // every type needs a worker or the drain hangs
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Window <= 0 {
		c.Window = 2 * c.Workers
	}
	if c.FailFrac == 0 {
		c.FailFrac = 0.15
	}
	if c.WorkMean <= 0 {
		c.WorkMean = 2 * time.Millisecond
	}
	if c.IngestRate == 0 {
		c.IngestRate = 5
	}
	if c.IngestStreams <= 0 {
		c.IngestStreams = 2
	}
	if c.Tenants < 0 {
		c.Tenants = 0
	}
	if c.Tenants > 0 {
		if c.NoisyTenant < 0 || c.NoisyTenant >= c.Tenants {
			c.NoisyTenant = 0
		}
		if c.NoisyFactor <= 0 {
			c.NoisyFactor = 3
		}
		if c.TenantQuota <= 0 && c.IngestRate > 0 {
			c.TenantQuota = 2 * c.IngestRate
		}
		if c.TenantBurst <= 0 {
			c.TenantBurst = 12
		}
	}
	if c.ScrapeEvery <= 0 {
		c.ScrapeEvery = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// tracker is the harness-side ledger of what workers observed: popped
// attempt epochs and accepted resolutions, keyed so the end-of-run
// invariants can prove fencing worked from the client's point of view.
type tracker struct {
	mu       sync.Mutex
	pops     map[int64][]int64          // task ID -> popped epochs, observation order
	accepted map[int64]map[int64]string // task ID -> epoch -> "complete" | "fail"

	stale      int64 // resolutions rejected with ErrStaleClaim (expected under chaos)
	unresolved int64 // resolutions lost to transport errors (server cleanup requeues)
}

func newTracker() *tracker {
	return &tracker{pops: map[int64][]int64{}, accepted: map[int64]map[int64]string{}}
}

func (tr *tracker) popped(id, epoch int64) {
	tr.mu.Lock()
	tr.pops[id] = append(tr.pops[id], epoch)
	tr.mu.Unlock()
}

func (tr *tracker) resolved(id, epoch int64, kind string, err error) {
	switch {
	case err == nil:
		tr.mu.Lock()
		if tr.accepted[id] == nil {
			tr.accepted[id] = map[int64]string{}
		}
		tr.accepted[id][epoch] = kind
		tr.mu.Unlock()
	case errors.Is(err, emews.ErrStaleClaim):
		atomic.AddInt64(&tr.stale, 1)
	default:
		atomic.AddInt64(&tr.unresolved, 1)
	}
}

// harness owns the full service stack for one run. The mutable service
// handles (the members' DBs and servers, the store, the HTTP server, the
// logs) are swapped under mu by the fault runner — crash reboots the
// stack in place, failover replaces one member; everything else is fixed
// for the run.
type harness struct {
	cfg     Config
	plan    []PlanEvent
	start   time.Time
	tracker *tracker
	shards  []*shardState // the task substrate: max(cfg.Shards, 1) members

	dirTasks, dirAero string

	mu       sync.Mutex
	store    *aero.Store
	logAero  *wal.Log
	httpSrv  *http.Server
	pool     *pool
	httpAddr string // re-resolved after every boot

	streams map[string]string // stream name -> data UUID (durable across crashes)

	// Tenant mode (cfg.Tenants > 0): bearer credentials, per-tenant counters, and the
	// run-long streaming watch subscriptions.
	auth         *globus.Auth
	tokens       map[string]string // tenant name -> bearer token ID
	streamTenant map[string]string // stream name -> owning tenant ("" legacy)
	watchers     []*sseWatcher

	tmu    sync.Mutex
	tstats map[string]*tenantStat

	probeChecks     int64
	probeViolations int64
	probeFirstBad   atomic.Value // string: first unexpected probe status

	faultMu     sync.Mutex
	faultCounts map[string]int
	crashes     int
	tornCrashes int
	failovers   int

	submitRetries int64
	ingestRetries int64
	scrapeOK      int64
	scrapeFailed  int64
	scrapeBad     int64 // scrapes that returned bytes that don't parse as a Snapshot

	fatal atomic.Value // error: first unrecoverable infrastructure failure
}

// tenantStat is one tenant's harness-side admission ledger: how many
// ingests the server accepted, how many it pushed back with 429, and
// when the last acceptance happened (the end of the tenant's admission
// window, used by the quota-conformance invariant).
type tenantStat struct {
	admitted  int64
	throttled int64
	lastAdmit time.Time
}

func (h *harness) tenantStatFor(tenant string) *tenantStat {
	s := h.tstats[tenant]
	if s == nil {
		s = &tenantStat{}
		h.tstats[tenant] = s
	}
	return s
}

func (h *harness) tenantAdmitted(tenant string) {
	h.tmu.Lock()
	s := h.tenantStatFor(tenant)
	s.admitted++
	s.lastAdmit = time.Now()
	h.tmu.Unlock()
}

func (h *harness) tenantThrottled(tenant string) {
	h.tmu.Lock()
	h.tenantStatFor(tenant).throttled++
	h.tmu.Unlock()
}

func (h *harness) fail(err error) {
	if err == nil {
		return
	}
	h.fatal.CompareAndSwap(nil, err)
	h.cfg.Logf("loadgen: fatal: %v", err)
}

func (h *harness) fatalErr() error {
	if v := h.fatal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

func (h *harness) currentStore() *aero.Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.store
}

func (h *harness) currentHTTPAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.httpAddr
}

// boot starts the whole stack from the data directories: every task
// member (see bootMember), then the WAL-recovered metadata store behind
// the HTTP metadata/metrics server. The first boot and every crash
// reboot take this one path.
func (h *harness) boot() error {
	for i := range h.shards {
		if err := h.bootMember(i); err != nil {
			return err
		}
	}
	return h.bootAero()
}

func (h *harness) bootAero() error {
	logAero, err := wal.Open(h.dirAero, wal.Options{Name: "wal.loadgen.aero", Logf: h.cfg.Logf})
	if err != nil {
		return fmt.Errorf("loadgen: open aero WAL: %w", err)
	}
	store, err := aero.OpenStore(logAero)
	if err != nil {
		logAero.Close()
		return fmt.Errorf("loadgen: recover metadata store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logAero.Close()
		return fmt.Errorf("loadgen: http listener: %w", err)
	}
	as := aero.NewServer(store)
	as.SetCompact(store.Compact)
	if h.cfg.Tenants > 0 {
		as.SetAuth(h.auth)
		q := aero.NewQuotas()
		q.SetLimit(aero.QuotaIngest, aero.QuotaLimit{Rate: h.cfg.TenantQuota, Burst: h.cfg.TenantBurst})
		as.SetQuotas(q)
	}
	httpSrv := &http.Server{Handler: as}
	go httpSrv.Serve(ln)

	h.mu.Lock()
	h.store, h.logAero = store, logAero
	h.httpSrv, h.httpAddr = httpSrv, ln.Addr().String()
	h.mu.Unlock()
	return nil
}

// closeStack tears the stack down gracefully — the task group, then the
// metadata server and its log — and returns the first log-close error.
// Safe on a partially booted stack.
func (h *harness) closeStack() error {
	err := h.closeShards()
	if h.httpSrv != nil {
		h.httpSrv.Close()
	}
	if h.logAero != nil {
		if cerr := h.logAero.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// crash simulates a daemon SIGKILL: the WAL handles are closed first —
// so, as in a real kill, nothing that happens during teardown (like the
// task server failing unresolved claims of dying connections) reaches the
// durable log — then the listeners are torn down, optionally each
// member's task WAL tail is chopped, and the whole stack is rebooted from
// disk on fresh ephemeral ports. db.Close and Compact are never run:
// recovery starts from raw log replay. validateFaults keeps crashes to
// one-member groups, which have no follower to restart.
func (h *harness) crash(torn bool) error {
	for _, s := range h.shards {
		s.reapStop()
		s.log.Close()
	}
	h.logAero.Close()
	for _, s := range h.shards {
		if torn {
			if err := tearTail(s.dir, 41); err != nil {
				return fmt.Errorf("loadgen: tear WAL tail: %w", err)
			}
		}
		s.srv.Close()
	}
	h.httpSrv.Close()

	h.faultMu.Lock()
	h.crashes++
	if torn {
		h.tornCrashes++
	}
	h.faultMu.Unlock()
	return h.boot()
}

// tearTail chops the last n bytes off the newest WAL segment in dir,
// leaving a torn record for recovery's truncate-and-warn path to handle.
func tearTail(dir string, n int64) error {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		return err
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(last, size)
}

// pool is a crash-restartable set of worker goroutines popping tasks
// through the chaos proxy and resolving them per their payload directive.
type pool struct {
	h        *harness
	ctx      context.Context
	cancel   context.CancelFunc
	hardStop chan struct{} // closed on crash: abandon claims mid-task
	hardOnce sync.Once
	wg       sync.WaitGroup
}

func (h *harness) startPool() *pool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pool{h: h, ctx: ctx, cancel: cancel, hardStop: make(chan struct{})}
	for i := 0; i < h.cfg.Workers; i++ {
		taskType := h.cfg.TaskTypes[i%len(h.cfg.TaskTypes)]
		p.wg.Add(1)
		go p.worker(taskType)
	}
	return p
}

func (h *harness) currentPool() *pool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pool
}

func (h *harness) setPool(p *pool) {
	h.mu.Lock()
	h.pool = p
	h.mu.Unlock()
}

// stop drains gracefully: workers finish their current claim, then exit.
func (p *pool) stop() {
	p.cancel()
	p.wg.Wait()
}

// crash hard-kills the pool: workers abandon in-flight claims without
// resolving them, leaving recovery to the server's connection cleanup and
// the lease reaper.
func (p *pool) crash() {
	p.hardOnce.Do(func() { close(p.hardStop) })
	p.cancel()
	p.wg.Wait()
}

// leaseSize is how many tasks a worker leases per round trip.
const leaseSize = 4

func (p *pool) worker(taskType string) {
	defer p.wg.Done()
	var cl *emews.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	drop := func() {
		if cl != nil {
			cl.Close()
			cl = nil
		}
	}
	pause := func(d time.Duration) bool {
		select {
		case <-p.ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	for p.ctx.Err() == nil {
		if cl == nil {
			c, err := p.h.dial()
			if err != nil {
				if !pause(25 * time.Millisecond) {
					return
				}
				continue
			}
			cl = c
		}
		tasks, err := cl.PopBatch(taskType, leaseSize, 200*time.Millisecond)
		if err != nil {
			drop()
			if !pause(10 * time.Millisecond) {
				return
			}
			continue
		}
		if len(tasks) == 0 {
			continue
		}
		// The whole lease is observed up front: later invariants reason
		// about pop order per task, and a task can appear at most once per
		// lease, so recording at receipt preserves each task's epoch order.
		for _, task := range tasks {
			p.h.tracker.popped(task.ID, task.Epoch)
		}
		fins := make([]emews.FinishOp, 0, len(tasks))
		kinds := make([]string, 0, len(tasks))
		for _, task := range tasks {
			var spec payloadSpec
			if err := json.Unmarshal([]byte(task.Payload), &spec); err != nil {
				// Not a plan task; should never happen. Fail it so it terminates.
				spec = payloadSpec{Index: -1, FailN: failAlways}
			}
			// Simulated model work. A pool crash abandons the claim (and the
			// rest of the lease) mid-task — the point of the fault.
			select {
			case <-time.After(time.Duration(spec.WorkUS) * time.Microsecond):
			case <-p.hardStop:
				return
			}
			if spec.FailN >= failAlways || task.Epoch <= int64(spec.FailN) {
				fins = append(fins, emews.FinishOp{TaskID: task.ID, Epoch: task.Epoch, Failed: true,
					ErrMsg: fmt.Sprintf("injected failure at epoch %d", task.Epoch)})
				kinds = append(kinds, "fail")
			} else {
				fins = append(fins, emews.FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: submitResult(spec.Index)})
				kinds = append(kinds, "complete")
			}
		}
		errs, berr := cl.FinishBatch(fins)
		if berr != nil {
			// The exchange failed wholesale; every resolution is unknown
			// and the server's connection cleanup requeues the claims.
			for i, fin := range fins {
				p.h.tracker.resolved(fin.TaskID, fin.Epoch, kinds[i], berr)
			}
			if errors.Is(berr, emews.ErrTransport) {
				drop()
			}
			continue
		}
		for i, fin := range fins {
			p.h.tracker.resolved(fin.TaskID, fin.Epoch, kinds[i], errs[i])
		}
	}
}

// ---- drivers ----

// submitDriver walks the submit plan, pacing open-loop by the event's
// AtMS offset or closed-loop by the in-flight window, and guarantees each
// event lands exactly once (at-least-once send + presence check on the
// ambiguous error paths).
func (h *harness) submitDriver() {
	var cl *emews.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for i := range h.plan {
		ev := &h.plan[i]
		if ev.Kind != EventSubmit {
			continue
		}
		if h.fatalErr() != nil {
			return
		}
		if h.cfg.Closed {
			for {
				st := h.statsAll()
				if st.Queued+st.Running < h.cfg.Window {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		} else {
			sleepUntil(h.start.Add(time.Duration(ev.AtMS) * time.Millisecond))
		}
		cl = h.ensureSubmitted(cl, ev)
	}
}

// ensureSubmitted submits ev, reconciling ambiguity: when the send fails
// the task may or may not have been applied, so the driver checks the
// live ledger for the event's plan index before re-sending. The returned
// client replaces the caller's (it may have been redialed or dropped).
func (h *harness) ensureSubmitted(cl *emews.Client, ev *PlanEvent) *emews.Client {
	for attempt := 0; ; attempt++ {
		if h.fatalErr() != nil {
			return cl
		}
		if attempt > 0 {
			atomic.AddInt64(&h.submitRetries, 1)
			if _, found := h.tasksByPlanIndex()[ev.Index]; found {
				return cl // the ambiguous send was applied after all
			}
			time.Sleep(20 * time.Millisecond)
		}
		if cl == nil {
			c, err := h.dial()
			if err != nil {
				continue
			}
			cl = c
		}
		_, err := cl.SubmitRetry(ev.TaskType, ev.Priority, ev.Payload, ev.MaxAttempts)
		if err == nil {
			return cl
		}
		cl.Close()
		cl = nil
	}
}

// tasksByPlanIndex scans the live ledger (all shards) and maps plan
// index -> task IDs.
func (h *harness) tasksByPlanIndex() map[int][]int64 {
	out := map[int][]int64{}
	for _, t := range h.dumpAll() {
		var spec payloadSpec
		if err := json.Unmarshal([]byte(t.Payload), &spec); err == nil {
			out[spec.Index] = append(out[spec.Index], t.ID)
		}
	}
	return out
}

// ingestDriver walks one tenant's slice of the ingest plan ("" = the
// whole plan in single-tenant mode), appending data versions over the
// real HTTP API with presence-check reconciliation (a version whose POST
// response was lost must not be appended twice). Each tenant gets its own
// driver so a throttled noisy neighbor backing off on 429s never
// head-of-line-blocks its well-behaved neighbors' pacing.
func (h *harness) ingestDriver(tenant string) {
	hc := &http.Client{Timeout: 5 * time.Second}
	for i := range h.plan {
		ev := &h.plan[i]
		if ev.Kind != EventIngest || ev.Tenant != tenant {
			continue
		}
		if h.fatalErr() != nil {
			return
		}
		sleepUntil(h.start.Add(time.Duration(ev.AtMS) * time.Millisecond))
		h.ensureIngested(hc, ev)
	}
}

func (h *harness) ensureIngested(hc *http.Client, ev *PlanEvent) {
	uuid := h.streams[ev.Stream]
	body, err := json.Marshal(aero.Version{
		Checksum:   ev.Checksum,
		Size:       1 + ev.Index,
		Endpoint:   "loadgen",
		Collection: ev.Stream,
		Path:       "/" + ev.Checksum,
	})
	if err != nil {
		h.fail(err)
		return
	}
	throttled := false
	for attempt := 0; ; attempt++ {
		if h.fatalErr() != nil {
			return
		}
		if attempt > 0 && !throttled {
			atomic.AddInt64(&h.ingestRetries, 1)
			time.Sleep(20 * time.Millisecond)
		}
		throttled = false
		if h.ingestPresent(ev) {
			return
		}
		req, err := http.NewRequest(http.MethodPost,
			"http://"+h.currentHTTPAddr()+"/data/"+uuid+"/versions", bytes.NewReader(body))
		if err != nil {
			h.fail(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tok := h.tokens[ev.Tenant]; tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := hc.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			h.tenantAdmitted(ev.Tenant)
			return
		case http.StatusTooManyRequests:
			// Quota pushback: honor the advertised backoff (capped — the
			// server rounds up to whole seconds) and try again. These are
			// expected for the noisy tenant, so they are counted per
			// tenant, not as infrastructure retries.
			h.tenantThrottled(ev.Tenant)
			throttled = true
			d := 100 * time.Millisecond
			if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
				d = time.Duration(s) * time.Second
			}
			if d > time.Second {
				d = time.Second
			}
			time.Sleep(d)
		}
	}
}

func (h *harness) ingestPresent(ev *PlanEvent) bool {
	// Tenant("") is the legacy single-tenant view, so this one lookup
	// serves both modes.
	rec, err := h.currentStore().Tenant(ev.Tenant).GetData(h.streams[ev.Stream])
	if err != nil {
		return false
	}
	for _, v := range rec.Versions {
		if v.Checksum == ev.Checksum {
			return true
		}
	}
	return false
}

// scrapeLoop polls /metrics like an external monitoring agent would,
// proving the observability surface stays consistent under chaos: scrape
// failures during fault windows are fine, malformed payloads never are.
func (h *harness) scrapeLoop(ctx context.Context) {
	hc := &http.Client{Timeout: 2 * time.Second}
	t := time.NewTicker(h.cfg.ScrapeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		resp, err := hc.Get("http://" + h.currentHTTPAddr() + "/metrics")
		if err != nil {
			atomic.AddInt64(&h.scrapeFailed, 1)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			atomic.AddInt64(&h.scrapeFailed, 1)
			continue
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			atomic.AddInt64(&h.scrapeBad, 1)
			continue
		}
		atomic.AddInt64(&h.scrapeOK, 1)
	}
}

// sseWatcher holds one tenant's streaming watch subscription (SSE over
// GET /watch) for the whole run and records exactly what was delivered:
// the watch-delivery invariant proves no event arrived twice and that
// delivered + dropped accounts for every version the tenant published.
type sseWatcher struct {
	tenant string
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	delivered map[string]int // "uuid@version" -> delivery count
	events    int64          // update frames received
	dropped   int64          // cumulative drop counter from the last frame
	readErr   error          // stream death before cancel (keep-alives make EOF impossible mid-run)
}

// startWatcher opens the subscription and blocks until the server's
// ready frame commits it — only then may the drivers start publishing,
// or early versions could legally be missed rather than dropped.
func (h *harness) startWatcher(tenant string) (*sseWatcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &sseWatcher{tenant: tenant, cancel: cancel, done: make(chan struct{}),
		delivered: map[string]int{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+h.currentHTTPAddr()+"/watch?buffer=64", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Authorization", "Bearer "+h.tokens[tenant])
	resp, err := (&http.Client{}).Do(req) // no client timeout: the stream lives all run
	if err != nil {
		cancel()
		return nil, fmt.Errorf("loadgen: watch for %s: %w", tenant, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("loadgen: watch for %s: status %d", tenant, resp.StatusCode)
	}
	ready := make(chan struct{})
	go w.consume(resp.Body, ready)
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		cancel()
		return nil, fmt.Errorf("loadgen: watch for %s: no ready frame", tenant)
	}
	return w, nil
}

func (w *sseWatcher) consume(body io.ReadCloser, ready chan struct{}) {
	defer close(w.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var event, data string
	readyOnce := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "": // blank line dispatches the frame
			switch event {
			case "ready":
				if !readyOnce {
					readyOnce = true
					close(ready)
				}
			case "update":
				var u struct {
					UUID    string `json:"uuid"`
					Version int    `json:"version"`
					Dropped int64  `json:"dropped"`
				}
				if err := json.Unmarshal([]byte(data), &u); err == nil {
					w.mu.Lock()
					w.delivered[fmt.Sprintf("%s@%d", u.UUID, u.Version)]++
					w.events++
					w.dropped = u.Dropped // cumulative, monotone
					w.mu.Unlock()
				}
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		w.mu.Lock()
		w.readErr = err
		w.mu.Unlock()
	}
}

// accounted reports delivered update frames + dropped so far.
func (w *sseWatcher) accounted() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events + w.dropped
}

// plannedIngests counts the plan's ingest events per tenant — the number
// of versions each tenant's watcher must eventually account for.
func (h *harness) plannedIngests() map[string]int {
	out := map[string]int{}
	for i := range h.plan {
		if h.plan[i].Kind == EventIngest {
			out[h.plan[i].Tenant]++
		}
	}
	return out
}

// awaitWatchers gives the streaming subscriptions time to finish
// draining after the last ingest landed: every published version must
// end up delivered or counted dropped before the accounting is read.
func (h *harness) awaitWatchers(timeout time.Duration) {
	if len(h.watchers) == 0 {
		return
	}
	planned := h.plannedIngests()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		settled := true
		for _, w := range h.watchers {
			if w.accounted() < int64(planned[w.tenant]) {
				settled = false
				break
			}
		}
		if settled {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// stopWatchers tears the subscriptions down (idempotent).
func (h *harness) stopWatchers() {
	for _, w := range h.watchers {
		w.cancel()
	}
	for _, w := range h.watchers {
		select {
		case <-w.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// probeDriver hammers the isolation boundary while the workload is
// live: a cross-tenant read with a valid neighbor token must 404
// (indistinguishable from a miss) and an unauthenticated read must 401.
// Transport errors are not isolation signals and are skipped.
func (h *harness) probeDriver() {
	hc := &http.Client{Timeout: 2 * time.Second}
	end := h.start.Add(h.cfg.Duration)
	for i := 0; time.Now().Before(end); i++ {
		if h.fatalErr() != nil {
			return
		}
		victim := (i + 1) % h.cfg.Tenants
		target := h.streams[TenantStreamName(victim, 0)]
		if h.cfg.Tenants > 1 {
			prober := TenantName(i % h.cfg.Tenants)
			h.probe(hc, target, h.tokens[prober], http.StatusNotFound,
				"cross-tenant read by "+prober)
		}
		h.probe(hc, target, "", http.StatusUnauthorized, "unauthenticated read")
		time.Sleep(50 * time.Millisecond)
	}
}

func (h *harness) probe(hc *http.Client, uuid, token string, want int, desc string) {
	req, err := http.NewRequest(http.MethodGet, "http://"+h.currentHTTPAddr()+"/data/"+uuid, nil)
	if err != nil {
		return
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	atomic.AddInt64(&h.probeChecks, 1)
	if resp.StatusCode != want {
		atomic.AddInt64(&h.probeViolations, 1)
		h.probeFirstBad.CompareAndSwap(nil, fmt.Sprintf("%s: got %d, want %d", desc, resp.StatusCode, want))
	}
}

// faultRunner fires the fault schedule at its absolute offsets. Windowed
// faults (refuse, latency) hold the runner for their window, so
// overlapping windows are not supported — schedules are sequential.
func (h *harness) faultRunner() {
	for _, f := range h.cfg.Faults {
		if h.fatalErr() != nil {
			return
		}
		sleepUntil(h.start.Add(f.At))
		h.faultMu.Lock()
		h.faultCounts[string(f.Kind)]++
		h.faultMu.Unlock()
		h.cfg.Logf("loadgen: fault %s", f)
		switch f.Kind {
		case FaultKill:
			for _, p := range h.proxies() {
				p.KillActive()
			}
		case FaultRefuse:
			for _, p := range h.proxies() {
				p.SetRefuse(true)
			}
			time.Sleep(f.Value)
			for _, p := range h.proxies() {
				p.SetRefuse(false)
			}
		case FaultLatency:
			for _, p := range h.proxies() {
				p.SetLatency(f.Value)
			}
			time.Sleep(f.Dur)
			for _, p := range h.proxies() {
				p.SetLatency(0)
			}
		case FaultPoolCrash:
			h.currentPool().crash()
			time.Sleep(f.Value)
			h.setPool(h.startPool())
		case FaultCrash:
			h.fail(h.crash(false))
		case FaultTornCrash:
			h.fail(h.crash(true))
		case FaultShardFailover:
			h.fail(h.failover(f.Shard))
		}
	}
}

// sweepSubmits re-submits plan events whose tasks are missing from the
// ledger. Only a torn-tail crash can eat an acknowledged submit, and a
// real ME process keeps its own intent log for exactly this
// reconciliation.
func (h *harness) sweepSubmits() {
	present := h.tasksByPlanIndex()
	var cl *emews.Client
	for i := range h.plan {
		ev := &h.plan[i]
		if ev.Kind != EventSubmit {
			continue
		}
		if _, ok := present[ev.Index]; ok {
			continue
		}
		h.cfg.Logf("loadgen: sweep resubmit of plan event %d (lost to a torn crash)", ev.Index)
		cl = h.ensureSubmitted(cl, ev)
	}
	if cl != nil {
		cl.Close()
	}
}

// sweepIngests re-appends versions missing from the store.
func (h *harness) sweepIngests() {
	hc := &http.Client{Timeout: 5 * time.Second}
	for i := range h.plan {
		ev := &h.plan[i]
		if ev.Kind != EventIngest || h.ingestPresent(ev) {
			continue
		}
		h.ensureIngested(hc, ev)
	}
}

// drain waits for the queue to empty: every submitted task terminal,
// nothing running.
func (h *harness) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := h.statsAll()
		if st.Queued == 0 && st.Running == 0 {
			return
		}
		if h.fatalErr() != nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// Run executes one full harness run: boot the stack, drive the plan
// through the chaos schedule, drain, audit, and report. Infrastructure
// failures (not invariant violations) are returned as errors; invariant
// violations make Report.Pass false.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := validateFaults(cfg.Faults, cfg.Shards, cfg.Tenants); err != nil {
		return nil, err
	}
	plan := BuildPlan(cfg)

	dataDir := cfg.DataDir
	ownDir := false
	if dataDir == "" {
		var err error
		dataDir, err = os.MkdirTemp("", "osprey-loadgen-*")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}
	h := &harness{
		cfg:          cfg,
		plan:         plan,
		tracker:      newTracker(),
		dirTasks:     filepath.Join(dataDir, "tasks"),
		dirAero:      filepath.Join(dataDir, "aero"),
		streams:      map[string]string{},
		streamTenant: map[string]string{},
		tokens:       map[string]string{},
		tstats:       map[string]*tenantStat{},
		faultCounts:  map[string]int{},
	}
	for _, d := range []string{h.dirTasks, h.dirAero} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		dir := shardDir(h.dirTasks, i)
		h.shards = append(h.shards, &shardState{idx: i, dirPrimary: dir, dirFollower: dir + "-replica", dir: dir})
	}
	// The owners of the ingest plan: one tenant per issued bearer token,
	// or the single unauthenticated owner "".
	tenants := []string{""}
	if cfg.Tenants > 0 {
		// One bearer token per tenant, minted before the metadata server
		// boots so bootAero can wire the validator in.
		h.auth = globus.NewAuth()
		tenants = nil
		for t := 0; t < cfg.Tenants; t++ {
			name := TenantName(t)
			h.tokens[name] = h.auth.Issue(name, 0, globus.ScopeAero).ID
			tenants = append(tenants, name)
		}
	}

	preObs := obs.Default().Snapshot()
	// One teardown for every return below, a partial boot included; the
	// graceful path calls it early to audit the closed logs.
	teardown := sync.OnceValue(h.closeStack)
	defer teardown()
	if err := h.boot(); err != nil {
		return nil, err
	}
	for t, tn := range tenants {
		for i := 0; i < cfg.IngestStreams; i++ {
			name := StreamName(i)
			if tn != "" {
				name = TenantStreamName(t, i)
			}
			rec, err := h.currentStore().Tenant(tn).CreateData(name, "loadgen://"+name)
			if err != nil {
				return nil, err
			}
			h.streams[name] = rec.UUID
			h.streamTenant[name] = tn
		}
	}
	if cfg.Tenants > 0 {
		// Subscriptions must be committed (ready frame seen) before the
		// first version is published, or early events would be misses
		// rather than deliveries/drops and the accounting could not close.
		defer h.stopWatchers()
		for _, tn := range tenants {
			w, err := h.startWatcher(tn)
			if err != nil {
				return nil, err
			}
			h.watchers = append(h.watchers, w)
		}
	}

	h.start = time.Now()
	h.setPool(h.startPool())
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	defer stopScrape()
	go h.scrapeLoop(scrapeCtx)

	drivers := []func(){h.submitDriver, h.faultRunner}
	for _, tn := range tenants {
		drivers = append(drivers, func() { h.ingestDriver(tn) })
	}
	if cfg.Tenants > 0 {
		drivers = append(drivers, h.probeDriver)
	}
	var wg sync.WaitGroup
	for _, f := range drivers {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()

	if err := h.fatalErr(); err != nil {
		h.currentPool().crash()
		return nil, err
	}

	// Post-plan reconciliation, then heal the network and drain.
	h.sweepSubmits()
	h.sweepIngests()
	for _, p := range h.proxies() {
		p.SetRefuse(false)
		p.SetLatency(0)
		p.SetAcceptDelay(0)
	}
	h.drain(cfg.DrainTimeout)
	h.awaitWatchers(10 * time.Second)
	elapsed := time.Since(h.start)
	stopScrape()
	h.currentPool().stop()
	h.stopWatchers()

	// Graceful teardown: capture final state, then close the stack and
	// audit the durable history.
	dump := h.dumpAll()
	stats := h.statsAll()
	streams := map[string]*aero.DataRecord{}
	for name, uuid := range h.streams {
		rec, err := h.currentStore().Tenant(h.streamTenant[name]).GetData(uuid)
		if err != nil {
			return nil, err
		}
		streams[name] = rec
	}
	postObs := obs.Default().Snapshot()

	if err := teardown(); err != nil {
		return nil, err
	}
	audit, err := emews.AuditShards(h.auditDirs())
	if err != nil {
		return nil, err
	}

	report := h.buildReport(plan, dump, stats, streams, audit, postObs.Delta(preObs), elapsed)
	if ownDir {
		if report.Pass {
			os.RemoveAll(dataDir)
		} else {
			report.DataDir = dataDir // keep the evidence
		}
	}
	return report, nil
}
