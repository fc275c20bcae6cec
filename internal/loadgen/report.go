package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"osprey/internal/aero"
	"osprey/internal/chaos"
	"osprey/internal/emews"
	"osprey/internal/obs"
)

// Invariant is one end-of-run check: a property that must hold over the
// final ledger, the harness-side tracker, or the durable WAL history.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Totals are the run's scalar counts.
type Totals struct {
	PlanSubmits int `json:"plan_submits"`
	PlanIngests int `json:"plan_ingests"`

	Submitted int `json:"submitted"`
	Complete  int `json:"complete"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`

	DuplicateTasks int `json:"duplicate_tasks"` // extra tasks for an already-covered plan index

	Crashes     int `json:"crashes"`
	TornCrashes int `json:"torn_crashes"`

	SubmitRetries int64 `json:"submit_retries"`
	IngestRetries int64 `json:"ingest_retries"`

	StaleResolutions      int64 `json:"stale_resolutions"`
	UnresolvedResolutions int64 `json:"unresolved_resolutions"`

	ScrapesOK     int64 `json:"scrapes_ok"`
	ScrapesFailed int64 `json:"scrapes_failed"`
	ScrapesBad    int64 `json:"scrapes_bad"`
}

// TenantReport is one tenant's slice of a multi-tenant run: what its
// ingest plan demanded, what the quota layer admitted and pushed back,
// and what its run-long streaming watch subscription accounted for.
type TenantReport struct {
	PlanIngests     int   `json:"plan_ingests"`
	Admitted        int64 `json:"admitted"`
	Throttled       int64 `json:"throttled"`
	WatchDelivered  int64 `json:"watch_delivered"`
	WatchDropped    int64 `json:"watch_dropped"`
	WatchDuplicates int64 `json:"watch_duplicates"`
}

// Workload identifies the deterministic plan: same seed, same shape →
// same Digest and the same Events, byte for byte.
type Workload struct {
	Digest string      `json:"digest"`
	Events []PlanEvent `json:"events"`
}

// Report is the JSON run report emitted by Run/cmd/osprey-loadgen.
type Report struct {
	Seed            uint64  `json:"seed"`
	Mode            string  `json:"mode"` // "open" | "closed"
	DurationSeconds float64 `json:"duration_seconds"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"` // includes drain
	Rate            float64 `json:"rate"`
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`              // task-substrate group size (1 = single stack)
	Failovers       int     `json:"failovers,omitempty"` // shard primaries killed and replaced by promoted followers

	Faults      []string       `json:"faults"`
	FaultCounts map[string]int `json:"fault_counts"`

	Workload Workload `json:"workload"`
	Totals   Totals   `json:"totals"`

	// Multi-tenant runs only: per-tenant admission/watch accounting and
	// the live isolation-probe tallies.
	TenantCount     int                      `json:"tenant_count,omitempty"`
	Tenants         map[string]*TenantReport `json:"tenants,omitempty"`
	ProbeChecks     int64                    `json:"probe_checks,omitempty"`
	ProbeViolations int64                    `json:"probe_violations,omitempty"`

	ThroughputPerSec float64 `json:"throughput_per_sec"` // terminal tasks / elapsed

	Proxy chaos.ProxyStats `json:"proxy"`

	// Obs is the windowed observability delta for the run: counters and
	// histogram buckets accumulated between run start and drain, with
	// latency quantiles re-derived from the window (see obs.Snapshot.Delta).
	Obs obs.Snapshot `json:"obs"`

	// WALAudit aliases ShardsAudit's Combined view: the one ledger the
	// invariants and tooling read for every group size.
	WALAudit *emews.WALAudit `json:"wal_audit"`

	// ShardsAudit is the per-member + cross-member durable-history audit.
	ShardsAudit *emews.ShardsAudit `json:"shards_audit,omitempty"`

	Invariants []Invariant `json:"invariants"`
	Pass       bool        `json:"pass"`

	// DataDir is set when a failing run kept its temp data directory.
	DataDir string `json:"data_dir,omitempty"`
}

// WriteJSON writes the indented report to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FailedInvariants returns the names of the checks that did not hold.
func (r *Report) FailedInvariants() []string {
	var out []string
	for _, inv := range r.Invariants {
		if !inv.OK {
			out = append(out, inv.Name+": "+inv.Detail)
		}
	}
	return out
}

func (h *harness) buildReport(plan []PlanEvent, dump []emews.Task, stats emews.Stats,
	streams map[string]*aero.DataRecord, audit *emews.ShardsAudit,
	delta obs.Snapshot, elapsed time.Duration) *Report {

	r := &Report{
		Seed:            h.cfg.Seed,
		Mode:            "open",
		DurationSeconds: h.cfg.Duration.Seconds(),
		ElapsedSeconds:  elapsed.Seconds(),
		Rate:            h.cfg.Rate,
		Workers:         h.cfg.Workers,
		Shards:          h.cfg.Shards,
		Failovers:       h.failovers,
		FaultCounts:     h.faultCounts,
		Workload:        Workload{Digest: PlanDigest(plan), Events: plan},
		Proxy:           h.proxyStats(),
		Obs:             delta,
		WALAudit:        audit.Combined,
		ShardsAudit:     audit,
	}
	if h.cfg.Closed {
		r.Mode = "closed"
	}
	for _, f := range h.cfg.Faults {
		r.Faults = append(r.Faults, f.String())
	}

	t := &r.Totals
	t.Submitted = stats.Submitted
	t.Complete = stats.Complete
	t.Failed = stats.Failed
	t.Canceled = stats.Canceled
	t.Crashes = h.crashes
	t.TornCrashes = h.tornCrashes
	t.SubmitRetries = atomic.LoadInt64(&h.submitRetries)
	t.IngestRetries = atomic.LoadInt64(&h.ingestRetries)
	t.StaleResolutions = atomic.LoadInt64(&h.tracker.stale)
	t.UnresolvedResolutions = atomic.LoadInt64(&h.tracker.unresolved)
	t.ScrapesOK = atomic.LoadInt64(&h.scrapeOK)
	t.ScrapesFailed = atomic.LoadInt64(&h.scrapeFailed)
	t.ScrapesBad = atomic.LoadInt64(&h.scrapeBad)
	for _, ev := range plan {
		switch ev.Kind {
		case EventSubmit:
			t.PlanSubmits++
		case EventIngest:
			t.PlanIngests++
		}
	}
	terminal := stats.Complete + stats.Failed + stats.Canceled
	if elapsed > 0 {
		r.ThroughputPerSec = float64(terminal) / elapsed.Seconds()
	}

	if h.cfg.Tenants > 0 {
		r.TenantCount = h.cfg.Tenants
		r.Tenants = map[string]*TenantReport{}
		planned := h.plannedIngests()
		h.tmu.Lock()
		for i := 0; i < h.cfg.Tenants; i++ {
			tn := TenantName(i)
			tr := &TenantReport{PlanIngests: planned[tn]}
			if s := h.tstats[tn]; s != nil {
				tr.Admitted, tr.Throttled = s.admitted, s.throttled
			}
			r.Tenants[tn] = tr
		}
		h.tmu.Unlock()
		for _, w := range h.watchers {
			tr := r.Tenants[w.tenant]
			w.mu.Lock()
			tr.WatchDelivered, tr.WatchDropped = w.events, w.dropped
			for _, n := range w.delivered {
				if n > 1 {
					tr.WatchDuplicates += int64(n - 1)
				}
			}
			w.mu.Unlock()
		}
		r.ProbeChecks = atomic.LoadInt64(&h.probeChecks)
		r.ProbeViolations = atomic.LoadInt64(&h.probeViolations)
	}

	r.Invariants = h.checkInvariants(plan, dump, stats, streams, audit.Combined)
	r.Pass = true
	for _, inv := range r.Invariants {
		if !inv.OK {
			r.Pass = false
		}
	}
	for i, ids := range h.tasksIndexFromDump(dump) {
		_ = i
		if len(ids) > 1 {
			t.DuplicateTasks += len(ids) - 1
		}
	}
	return r
}

func (h *harness) tasksIndexFromDump(dump []emews.Task) map[int][]int64 {
	out := map[int][]int64{}
	for _, task := range dump {
		var spec payloadSpec
		if err := json.Unmarshal([]byte(task.Payload), &spec); err == nil {
			out[spec.Index] = append(out[spec.Index], task.ID)
		}
	}
	return out
}

// checkInvariants evaluates every end-of-run property. Checks marked
// "(clean-crash only)" cannot hold across a torn-tail crash — chopping
// the WAL rewinds the epoch clock, so pre-chop observations legally
// collide with post-recovery ones — and are skipped when the schedule
// tore the log; the WAL audit of the surviving history is unconditional.
func (h *harness) checkInvariants(plan []PlanEvent, dump []emews.Task, stats emews.Stats,
	streams map[string]*aero.DataRecord, audit *emews.WALAudit) []Invariant {

	var invs []Invariant
	add := func(name string, ok bool, format string, args ...any) {
		invs = append(invs, Invariant{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	skip := func(name, why string) {
		invs = append(invs, Invariant{Name: name, OK: true, Detail: "skipped: " + why})
	}
	torn := h.tornCrashes > 0

	// 1. Drained: nothing queued or running after the drain window.
	add("drained", stats.Queued == 0 && stats.Running == 0,
		"queued=%d running=%d", stats.Queued, stats.Running)

	// 2. Ledger balance: submitted = queued+running+complete+failed+canceled,
	// and the per-task dump recounts to the same stats (no task lost
	// between the counters and the ledger).
	sum := stats.Queued + stats.Running + stats.Complete + stats.Failed + stats.Canceled
	var rec emews.Stats
	for _, task := range dump {
		switch task.Status {
		case emews.StatusQueued:
			rec.Queued++
		case emews.StatusRunning:
			rec.Running++
		case emews.StatusComplete:
			rec.Complete++
		case emews.StatusFailed:
			rec.Failed++
		case emews.StatusCanceled:
			rec.Canceled++
		}
	}
	rec.Submitted = len(dump)
	add("ledger-balance",
		stats.Submitted == sum && rec == stats,
		"stats=%+v sum=%d recount=%+v", stats, sum, rec)

	// 3. No cancellations: the harness never closes the DB mid-run, so a
	// canceled task would mean a lifecycle leak.
	add("no-cancellations", stats.Canceled == 0, "canceled=%d", stats.Canceled)

	// 4. Plan coverage: every planned submit exists in the ledger, and
	// every ledger task came from the plan.
	byIndex := h.tasksIndexFromDump(dump)
	missing, unplanned := 0, 0
	for _, ev := range plan {
		if ev.Kind != EventSubmit {
			continue
		}
		if len(byIndex[ev.Index]) == 0 {
			missing++
		}
	}
	planSubmits := 0
	for _, ev := range plan {
		if ev.Kind == EventSubmit {
			planSubmits++
		}
	}
	for idx := range byIndex {
		if idx < 0 || idx >= planSubmits {
			unplanned++
		}
	}
	add("plan-coverage", missing == 0 && unplanned == 0,
		"missing=%d unplanned=%d indexes=%d", missing, unplanned, len(byIndex))

	// 5. Intended outcomes: all tasks terminal; a task planned to succeed
	// completed with the right result, a task planned to always fail
	// failed terminally.
	badOutcome := 0
	var firstBad string
	for _, task := range dump {
		var spec payloadSpec
		if json.Unmarshal([]byte(task.Payload), &spec) != nil {
			continue // flagged by plan-coverage
		}
		ok := false
		switch task.Status {
		case emews.StatusComplete:
			ok = expectedOutcome(spec) && task.Result == submitResult(spec.Index)
		case emews.StatusFailed:
			ok = !expectedOutcome(spec)
		}
		if !ok {
			badOutcome++
			if firstBad == "" {
				firstBad = fmt.Sprintf("task %d (plan %d) status=%v result=%q fail_n=%d",
					task.ID, spec.Index, task.Status, task.Result, spec.FailN)
			}
		}
	}
	add("intended-outcomes", badOutcome == 0, "bad=%d %s", badOutcome, firstBad)

	// 6. Epoch fencing, DB side: every task's epoch is at least its pop
	// count (requeues only ever push the fence forward).
	badEpoch := 0
	for _, task := range dump {
		if task.Epoch < int64(task.Attempts) {
			badEpoch++
		}
	}
	add("epoch-covers-attempts", badEpoch == 0, "violations=%d", badEpoch)

	// 7. Epoch fencing, worker side (clean-crash only): the epochs each
	// worker observed for a task are strictly increasing — no attempt was
	// ever handed out twice.
	if torn {
		skip("epochs-strictly-increase", "torn-tail crash rewinds the epoch clock")
	} else {
		bad := 0
		h.tracker.mu.Lock()
		for _, epochs := range h.tracker.pops {
			for i := 1; i < len(epochs); i++ {
				if epochs[i] <= epochs[i-1] {
					bad++
				}
			}
		}
		h.tracker.mu.Unlock()
		add("epochs-strictly-increase", bad == 0, "violations=%d", bad)
	}

	// 8. No double accept (clean-crash only): at most one successful
	// completion was accepted per task. Accepted failures requeue and are
	// legal up to the retry budget; a second accepted completion means a
	// finished task was re-executed, which only a torn-away durable finish
	// record can cause.
	if torn {
		skip("no-double-accept", "torn-tail crash can lose a durable finish")
	} else {
		multi := 0
		h.tracker.mu.Lock()
		for _, byEpoch := range h.tracker.accepted {
			completes := 0
			for _, kind := range byEpoch {
				if kind == "complete" {
					completes++
				}
			}
			if completes > 1 {
				multi++
			}
		}
		h.tracker.mu.Unlock()
		add("no-double-accept", multi == 0, "tasks with >1 accepted completion: %d", multi)
	}

	// 9. Durable history: the strict WAL replay found no lifecycle
	// violations — unconditional, even across torn crashes, because
	// truncation only ever removes a suffix.
	add("wal-audit-clean", audit.Ok(), "violations=%d %s",
		len(audit.Violations), strings.Join(firstN(audit.Violations, 3), "; "))

	// 10. Ingest exactly-once: each stream's version checksums are exactly
	// the planned set, no duplicates, with contiguous version numbers.
	ingestBad := ""
	want := map[string][]string{}
	for _, ev := range plan {
		if ev.Kind == EventIngest {
			want[ev.Stream] = append(want[ev.Stream], ev.Checksum)
		}
	}
	for stream, checksums := range want {
		rec := streams[stream]
		if rec == nil {
			ingestBad = "stream " + stream + " missing"
			break
		}
		got := map[string]int{}
		for i, v := range rec.Versions {
			got[v.Checksum]++
			if v.Num != i+1 {
				ingestBad = fmt.Sprintf("stream %s version %d has num %d", stream, i+1, v.Num)
			}
		}
		if len(rec.Versions) != len(checksums) {
			ingestBad = fmt.Sprintf("stream %s has %d versions, want %d", stream, len(rec.Versions), len(checksums))
		}
		for _, c := range checksums {
			if got[c] != 1 {
				ingestBad = fmt.Sprintf("stream %s checksum %s appears %d times", stream, c, got[c])
			}
		}
	}
	add("ingest-exactly-once", ingestBad == "", "%s", ingestBad)

	// 11. Observability surface: scrapes succeeded at least once and
	// never returned an unparsable payload.
	add("scrapes-parse",
		atomic.LoadInt64(&h.scrapeOK) >= 1 && atomic.LoadInt64(&h.scrapeBad) == 0,
		"ok=%d failed=%d bad=%d",
		atomic.LoadInt64(&h.scrapeOK), atomic.LoadInt64(&h.scrapeFailed), atomic.LoadInt64(&h.scrapeBad))

	// 12-15. Multi-tenant properties; vacuous in single-tenant mode.
	if h.cfg.Tenants == 0 {
		for _, name := range []string{"tenant-isolation", "tenant-quota-enforced",
			"tenant-ledger-balance", "watch-delivery"} {
			skip(name, "single-tenant run")
		}
		return invs
	}
	planned := h.plannedIngests()

	// 12. Isolation: every live probe saw the right refusal (404 for a
	// cross-tenant read with a valid neighbor token, 401 unauthenticated),
	// and each tenant's final listing holds exactly its own streams.
	isoBad := ""
	if v := atomic.LoadInt64(&h.probeViolations); v > 0 {
		first, _ := h.probeFirstBad.Load().(string)
		isoBad = fmt.Sprintf("%d/%d probes violated isolation (%s)",
			v, atomic.LoadInt64(&h.probeChecks), first)
	} else if atomic.LoadInt64(&h.probeChecks) == 0 {
		isoBad = "no isolation probes ran"
	}
	for i := 0; i < h.cfg.Tenants && isoBad == ""; i++ {
		tn := TenantName(i)
		recs, err := h.currentStore().Tenant(tn).ListData()
		if err != nil {
			isoBad = fmt.Sprintf("list %s: %v", tn, err)
			break
		}
		if len(recs) != h.cfg.IngestStreams {
			isoBad = fmt.Sprintf("%s lists %d records, want %d own streams", tn, len(recs), h.cfg.IngestStreams)
			break
		}
		for _, rec := range recs {
			if h.streamTenant[rec.Name] != tn {
				isoBad = fmt.Sprintf("%s lists foreign record %s", tn, rec.UUID)
				break
			}
		}
	}
	add("tenant-isolation", isoBad == "", "checks=%d %s", atomic.LoadInt64(&h.probeChecks), isoBad)

	// 13. Quota conformance: no tenant was admitted faster than its
	// token bucket allows (burst + rate×window, with half a second of
	// slack for clock edges), and the noisy neighbor — whenever its plan
	// actually exceeds the bucket — was throttled at least once while
	// the quiet tenants' demand stayed under quota.
	quotaBad := ""
	h.tmu.Lock()
	for i := 0; i < h.cfg.Tenants; i++ {
		tn := TenantName(i)
		s := h.tstats[tn]
		if s == nil || s.admitted == 0 {
			quotaBad = fmt.Sprintf("tenant %s had nothing admitted", tn)
			continue
		}
		window := s.lastAdmit.Sub(h.start).Seconds()
		if window < 0 {
			window = 0
		}
		bound := h.cfg.TenantBurst + h.cfg.TenantQuota*(window+0.5)
		if float64(s.admitted) > bound {
			quotaBad = fmt.Sprintf("tenant %s admitted %d in %.2fs, quota bound %.1f", tn, s.admitted, window, bound)
		}
	}
	noisyName := TenantName(h.cfg.NoisyTenant)
	noisyDemand := float64(planned[noisyName])
	noisyCapacity := h.cfg.TenantBurst + h.cfg.TenantQuota*h.cfg.Duration.Seconds()
	if s := h.tstats[noisyName]; noisyDemand > noisyCapacity && (s == nil || s.throttled == 0) {
		quotaBad = fmt.Sprintf("noisy tenant planned %d > capacity %.0f but saw no 429", planned[noisyName], noisyCapacity)
	}
	h.tmu.Unlock()
	add("tenant-quota-enforced", quotaBad == "", "%s", quotaBad)

	// 14. Per-tenant ledger balance: the versions that landed in each
	// tenant's streams are exactly the tenant's planned ingests —
	// throttling delays events, it never sheds or double-applies them.
	ledBad := ""
	gotVersions := map[string]int{}
	for name, rec := range streams {
		gotVersions[h.streamTenant[name]] += len(rec.Versions)
	}
	for tn, want := range planned {
		if gotVersions[tn] != want {
			ledBad = fmt.Sprintf("tenant %s has %d versions, plan says %d", tn, gotVersions[tn], want)
		}
	}
	add("tenant-ledger-balance", ledBad == "", "%s", ledBad)

	// 15. Watch delivery: each tenant's run-long streaming subscription
	// saw no event twice, its stream never died, and delivered + dropped
	// accounts for every version the tenant published.
	watchBad := ""
	for _, w := range h.watchers {
		w.mu.Lock()
		dups := 0
		for _, n := range w.delivered {
			if n > 1 {
				dups += n - 1
			}
		}
		events, dropped, readErr := w.events, w.dropped, w.readErr
		w.mu.Unlock()
		want := int64(planned[w.tenant])
		switch {
		case readErr != nil:
			watchBad = fmt.Sprintf("%s stream died: %v", w.tenant, readErr)
		case dups > 0:
			watchBad = fmt.Sprintf("%s saw %d duplicate deliveries", w.tenant, dups)
		case events+dropped != want:
			watchBad = fmt.Sprintf("%s delivered %d + dropped %d != published %d", w.tenant, events, dropped, want)
		}
	}
	add("watch-delivery", watchBad == "", "watchers=%d %s", len(h.watchers), watchBad)

	return invs
}

func firstN(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
