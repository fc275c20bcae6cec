package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"osprey/internal/obs"
)

// Two plans built from the same config must be byte-identical; changing
// the seed must change the digest.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Duration: 5 * time.Second, Rate: 100}
	a, b := BuildPlan(cfg), BuildPlan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-config plans differ")
	}
	if PlanDigest(a) != PlanDigest(b) {
		t.Fatal("same-config digests differ")
	}
	cfg.Seed = 43
	if PlanDigest(BuildPlan(cfg)) == PlanDigest(a) {
		t.Fatal("different seeds produced the same digest")
	}
	// Pacing offsets must be sorted and inside the workload window.
	var last int64
	for _, ev := range a {
		if ev.AtMS < last {
			t.Fatalf("plan not sorted: %d after %d", ev.AtMS, last)
		}
		last = ev.AtMS
	}
	if n := len(a); n < 500 {
		t.Fatalf("plan has %d events, want ~500 submits + ingests", n)
	}
}

// fullFaultSchedule uses every fault kind once; badFaultSchedules must
// all be rejected. Both seed FuzzParseFaults.
const fullFaultSchedule = "5s:kill; 8s:refuse:1s;12s:latency:50ms:2s; 15s:pool-crash:500ms;20s:crash;25s:torn-crash;30s:shard-failover:1"

var badFaultSchedules = []string{"kill", "5s:explode", "x:kill", "5s:refuse:x", "5s:kill:1s",
	"5s:shard-failover:x", "5s:shard-failover:-1", "5s:shard-failover:1:2",
	"5s:refuse:1s:2s", "5s:latency:1ms:1s:7s", "5s:pool-crash:1s:2s",
	"-1s:kill", "5s:refuse:-1s", "5s:latency:1ms:-2s", "5s:latency:-1ms", "5s:pool-crash:-1s"}

// The plans of the three CI soak jobs are pinned: a digest move means
// the same seed no longer replays the same workload. Each config mirrors
// one Makefile line (targets soak, soak-shard and soak-tenant) plus the
// osprey-loadgen flag defaults those lines rely on (-ingest-rate 10,
// -noisy-factor 3).
func TestCISoakPlanDigests(t *testing.T) {
	base := Config{Duration: 30 * time.Second, Rate: 150, Workers: 8, IngestRate: 10, NoisyFactor: 3}
	cases := []struct {
		target string
		seed   uint64
		shards int
		tenant int
		digest string
	}{
		{"soak", 42, 1, 0, "f9868cceb49a"},
		{"soak-shard", 73, 3, 0, "080c473dc77d"},
		{"soak-tenant", 91, 1, 3, "d5a4e6cdaa25"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Seed, cfg.Shards, cfg.Tenants = tc.seed, tc.shards, tc.tenant
		if got := PlanDigest(BuildPlan(cfg)); !strings.HasPrefix(got, tc.digest) {
			t.Errorf("make %s: plan digest %s, want prefix %s", tc.target, got[:12], tc.digest)
		}
	}
}

func TestParseFaults(t *testing.T) {
	evs, err := ParseFaults(fullFaultSchedule)
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{At: 5 * time.Second, Kind: FaultKill},
		{At: 8 * time.Second, Kind: FaultRefuse, Value: time.Second},
		{At: 12 * time.Second, Kind: FaultLatency, Value: 50 * time.Millisecond, Dur: 2 * time.Second},
		{At: 15 * time.Second, Kind: FaultPoolCrash, Value: 500 * time.Millisecond},
		{At: 20 * time.Second, Kind: FaultCrash},
		{At: 25 * time.Second, Kind: FaultTornCrash},
		{At: 30 * time.Second, Kind: FaultShardFailover, Shard: 1},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("ParseFaults = %+v, want %+v", evs, want)
	}
	// An omitted shard index defaults to shard 0.
	if evs, err := ParseFaults("1s:shard-failover"); err != nil || evs[0].Shard != 0 {
		t.Fatalf("bare shard-failover: %+v %v", evs, err)
	}
	// Defaults fill in omitted windows.
	evs, err = ParseFaults("1s:refuse;2s:latency")
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Value != defaultRefuseWindow || evs[1].Value != defaultLatency || evs[1].Dur != defaultLatencyWindow {
		t.Fatalf("defaults not applied: %+v", evs)
	}
	for _, bad := range badFaultSchedules {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) did not fail", bad)
		}
	}
	if evs, _ := ParseFaults("none"); evs != nil {
		t.Fatal("none should parse to an empty schedule")
	}
	if evs, err := ParseFaultsFor("default", 10*time.Second); err != nil || len(evs) == 0 {
		t.Fatalf("default schedule: %v %v", evs, err)
	}
	if evs, err := ParseFaultsFor("shard-failover", 10*time.Second); err != nil || len(evs) == 0 {
		t.Fatalf("shard-failover schedule: %v %v", evs, err)
	}
}

// Any schedule ParseFaults accepts must print, via FaultEvent.String, as
// a schedule that parses back to the same events; no input may panic.
func FuzzParseFaults(f *testing.F) {
	for _, s := range append([]string{fullFaultSchedule, "1s:shard-failover", "1s:refuse;2s:latency", "none"},
		badFaultSchedules...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseFaults(s)
		if err != nil {
			return
		}
		printed := make([]string, len(evs))
		for i, ev := range evs {
			printed[i] = ev.String()
		}
		back, err := ParseFaults(strings.Join(printed, ";"))
		if err != nil {
			t.Fatalf("ParseFaults(%q) = %v, but its printed form %q fails: %v", s, evs, printed, err)
		}
		if !reflect.DeepEqual(back, evs) {
			t.Fatalf("ParseFaults(%q) = %+v, reparsed %+v", s, evs, back)
		}
	})
}

// Fault schedules and topologies must agree before any stack is booted.
func TestValidateShardFaults(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		faults string
	}{
		{"crash-with-shards", 3, "1s:crash"},
		{"torn-crash-with-shards", 3, "1s:torn-crash"},
		{"failover-without-shards", 1, "1s:shard-failover"},
		{"failover-out-of-range", 2, "1s:shard-failover:2"},
		{"failover-same-shard-twice", 3, "1s:shard-failover:0;2s:shard-failover:0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults, err := ParseFaults(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(Config{Shards: tc.shards, Faults: faults}); err == nil {
				t.Fatalf("Run accepted %q with %d shards", tc.faults, tc.shards)
			}
		})
	}
	if err := validateFaults(ShardFailoverFaults(time.Second), 3, 0); err != nil {
		t.Fatalf("named schedule rejected for 3 shards: %v", err)
	}
	if err := validateFaults(DefaultFaults(time.Second), 1, 0); err != nil {
		t.Fatalf("default schedule rejected for the single stack: %v", err)
	}
	if err := validateFaults(TenantFaults(time.Second), 1, 3); err != nil {
		t.Fatalf("tenant schedule rejected for a tenant run: %v", err)
	}
	if err := validateFaults(DefaultFaults(time.Second), 1, 3); err == nil {
		t.Fatal("crash schedule accepted for a tenant run")
	}
}

// The short soak: two same-seed runs through the full fault taxonomy.
// Every invariant must hold in both runs and the workload digests (and
// event sequences) must be identical — the determinism contract the soak
// CI leg enforces at larger scale.
func TestShortSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness in -short mode")
	}
	d := 1200 * time.Millisecond
	cfg := Config{
		Seed:         7,
		Duration:     d,
		Rate:         120,
		Workers:      6,
		IngestRate:   15,
		ScrapeEvery:  150 * time.Millisecond,
		Faults:       DefaultFaults(d),
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	}
	var reports [2]*Report
	for i := range reports {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !r.Pass {
			t.Fatalf("run %d failed invariants: %v", i, r.FailedInvariants())
		}
		if r.Totals.Crashes != 2 || r.Totals.TornCrashes != 1 {
			t.Fatalf("run %d: crashes=%d torn=%d, want 2/1 from the default schedule",
				i, r.Totals.Crashes, r.Totals.TornCrashes)
		}
		if r.Totals.Complete == 0 || r.Totals.Failed == 0 {
			t.Fatalf("run %d: degenerate mix complete=%d failed=%d",
				i, r.Totals.Complete, r.Totals.Failed)
		}
		reports[i] = r
	}
	if reports[0].Workload.Digest != reports[1].Workload.Digest {
		t.Fatalf("same-seed runs produced different workload digests: %s != %s",
			reports[0].Workload.Digest, reports[1].Workload.Digest)
	}
	a, _ := json.Marshal(reports[0].Workload.Events)
	b, _ := json.Marshal(reports[1].Workload.Events)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different event sequences")
	}
	// The report must round-trip as JSON (it is the CI artifact).
	var buf bytes.Buffer
	if err := reports[0].WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload.Digest != reports[0].Workload.Digest || !back.Pass {
		t.Fatal("report did not survive a JSON round trip")
	}
}

// The sharded soak: two same-seed runs over a 3-shard group through the
// shard-failover schedule, which kills two shard primaries mid-run and
// promotes their followers. Every invariant must hold in both runs —
// including the cross-shard audit — and the workload digests must match:
// failover must not cost determinism, coverage, or fencing.
func TestShardedSoakFailoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness in -short mode")
	}
	d := 1500 * time.Millisecond
	cfg := Config{
		Seed:         11,
		Duration:     d,
		Rate:         120,
		Workers:      6,
		Shards:       3,
		IngestRate:   10,
		ScrapeEvery:  200 * time.Millisecond,
		Faults:       ShardFailoverFaults(d),
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	}
	var reports [2]*Report
	for i := range reports {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !r.Pass {
			t.Fatalf("run %d failed invariants: %v", i, r.FailedInvariants())
		}
		if r.Shards != 3 || r.Failovers != 2 {
			t.Fatalf("run %d: shards=%d failovers=%d, want 3/2 from the schedule", i, r.Shards, r.Failovers)
		}
		if r.ShardsAudit == nil || !r.ShardsAudit.Ok() {
			t.Fatalf("run %d: shard audit missing or dirty: %+v", i, r.ShardsAudit)
		}
		for s, a := range r.ShardsAudit.Shards {
			if a.Submits == 0 {
				t.Fatalf("run %d: shard %d saw no submits — ring routing is not spreading the workload", i, s)
			}
		}
		if r.Totals.Complete == 0 || r.Totals.Failed == 0 {
			t.Fatalf("run %d: degenerate mix complete=%d failed=%d", i, r.Totals.Complete, r.Totals.Failed)
		}
		reports[i] = r
	}
	if reports[0].Workload.Digest != reports[1].Workload.Digest {
		t.Fatalf("same-seed sharded runs produced different workload digests: %s != %s",
			reports[0].Workload.Digest, reports[1].Workload.Digest)
	}
	a, _ := json.Marshal(reports[0].Workload.Events)
	b, _ := json.Marshal(reports[1].Workload.Events)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed sharded runs produced different event sequences")
	}
}

// Tenant plans: the legacy encoding must not grow a tenant key (older
// same-seed digests stay valid), and the multi-tenant plan must give the
// noisy neighbor its rate multiplier on private streams.
func TestTenantPlanShape(t *testing.T) {
	legacy := BuildPlan(Config{Seed: 5, Duration: time.Second, IngestRate: 10})
	b, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"tenant"`)) {
		t.Fatal("legacy plan encoding grew a tenant key")
	}

	cfg := Config{Seed: 5, Duration: time.Second, IngestRate: 10, Tenants: 3, NoisyTenant: 1}
	plan := BuildPlan(cfg)
	if PlanDigest(plan) != PlanDigest(BuildPlan(cfg)) {
		t.Fatal("same-seed tenant plans differ")
	}
	counts := map[string]int{}
	for _, ev := range plan {
		if ev.Kind != EventIngest {
			continue
		}
		counts[ev.Tenant]++
		if ev.Tenant == "" {
			t.Fatal("tenant-mode ingest event without a tenant")
		}
		wantPrefix := ev.Tenant[len("tenant-"):]
		if ev.Stream[:len("t"+wantPrefix)] != "t"+wantPrefix {
			t.Fatalf("stream %s not private to %s", ev.Stream, ev.Tenant)
		}
	}
	quiet, noisy := counts[TenantName(0)], counts[TenantName(1)]
	if quiet != 10 || noisy != 30 {
		t.Fatalf("ingest counts quiet=%d noisy=%d, want 10/30 (3× noisy factor)", quiet, noisy)
	}
}

// The multi-tenant soak: two same-seed runs with a noisy neighbor through
// the tenant fault schedule. Every invariant must hold — including zero
// cross-tenant reads, quota conformance with the noisy tenant actually
// throttled, per-tenant ledger balance, and exactly-once watch delivery —
// and the workload digests must match.
func TestTenantSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness in -short mode")
	}
	d := 1500 * time.Millisecond
	cfg := Config{
		Seed:         19,
		Duration:     d,
		Rate:         100,
		Workers:      6,
		IngestRate:   20, // per tenant; the noisy neighbor runs at 3× and must hit the quota
		Tenants:      3,
		ScrapeEvery:  200 * time.Millisecond,
		Faults:       TenantFaults(d),
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	}
	var reports [2]*Report
	for i := range reports {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !r.Pass {
			t.Fatalf("run %d failed invariants: %v", i, r.FailedInvariants())
		}
		if r.TenantCount != 3 || len(r.Tenants) != 3 {
			t.Fatalf("run %d: tenant accounting missing: %+v", i, r.Tenants)
		}
		noisy := r.Tenants[TenantName(0)]
		if noisy.Throttled == 0 {
			t.Fatalf("run %d: noisy tenant never throttled: %+v", i, noisy)
		}
		if r.ProbeChecks == 0 || r.ProbeViolations != 0 {
			t.Fatalf("run %d: probes=%d violations=%d", i, r.ProbeChecks, r.ProbeViolations)
		}
		for tn, tr := range r.Tenants {
			if tr.WatchDelivered+tr.WatchDropped != int64(tr.PlanIngests) || tr.WatchDuplicates != 0 {
				t.Fatalf("run %d: %s watch accounting: %+v", i, tn, tr)
			}
		}
		reports[i] = r
	}
	if reports[0].Workload.Digest != reports[1].Workload.Digest {
		t.Fatalf("same-seed tenant runs produced different workload digests: %s != %s",
			reports[0].Workload.Digest, reports[1].Workload.Digest)
	}
}

// A closed-loop run with no faults: the in-flight window caps the queue.
// Pacing reads the occupancy summed over the group's members, so it runs
// on one member and on two.
func TestClosedLoopNoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness in -short mode")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{
				Seed:        3,
				Duration:    400 * time.Millisecond,
				Rate:        100,
				Workers:     4,
				Closed:      true,
				Window:      8,
				Shards:      shards,
				IngestRate:  -1, // disabled
				ScrapeEvery: 50 * time.Millisecond,
				Logf:        t.Logf,
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Pass {
				t.Fatalf("failed invariants: %v", r.FailedInvariants())
			}
			if r.Mode != "closed" {
				t.Fatalf("mode = %q", r.Mode)
			}
			if r.Totals.PlanIngests != 0 {
				t.Fatalf("ingests planned despite IngestRate<0: %d", r.Totals.PlanIngests)
			}
		})
	}
}

// A torn crash must still hand recovery a torn record. crash closes the
// task log, which truncates its zero-filled tail, so tearTail's cut lands
// in the last commit rather than in zeros, and replay counts a damaged
// tail.
func TestTornCrashTruncatesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness in -short mode")
	}
	faults, err := ParseFaults("300ms:torn-crash")
	if err != nil {
		t.Fatal(err)
	}
	truncated := obs.GetCounter("wal.loadgen.shard0.truncated_tail")
	before := truncated.Value()
	r, err := Run(Config{
		Seed:         11,
		Duration:     600 * time.Millisecond,
		Rate:         100,
		Workers:      4,
		IngestRate:   -1,
		ScrapeEvery:  100 * time.Millisecond,
		Faults:       faults,
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("failed invariants: %v", r.FailedInvariants())
	}
	if r.Totals.TornCrashes != 1 {
		t.Fatalf("torn crashes = %d, want 1", r.Totals.TornCrashes)
	}
	if got := truncated.Value() - before; got < 1 {
		t.Fatalf("wal.loadgen.shard0.truncated_tail moved by %d across a torn crash, want >= 1", got)
	}
}
