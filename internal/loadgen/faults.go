package loadgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FaultKind names one chaos action the harness can take mid-run.
type FaultKind string

const (
	// FaultKill severs every active worker connection through the proxy.
	// Unresolved claims are failed by the server's connection-scoped
	// cleanup and requeued.
	FaultKill FaultKind = "kill"
	// FaultRefuse makes the proxy refuse new connections for a window
	// (Value), simulating a partition between the worker pool and the
	// task server.
	FaultRefuse FaultKind = "refuse"
	// FaultLatency injects per-chunk latency (Value) on every proxied
	// connection for a window (Dur), simulating a congested link.
	FaultLatency FaultKind = "latency"
	// FaultPoolCrash hard-kills the worker pool mid-task (claims are
	// abandoned, not resolved) and restarts it after Value.
	FaultPoolCrash FaultKind = "pool-crash"
	// FaultCrash SIGKILLs the simulated daemon: the task server, metadata
	// server, and WAL handles are dropped without close/compact, then
	// everything is rebooted from the data directory on the same ports.
	FaultCrash FaultKind = "crash"
	// FaultTornCrash is FaultCrash plus a torn tail: the last bytes of
	// the task WAL's active segment are chopped before reboot, exercising
	// the truncate-and-warn recovery path. A torn tail may lose a finish
	// record, so a task can legally be re-executed after this fault (the
	// per-(task,epoch) fencing invariants still hold).
	FaultTornCrash FaultKind = "torn-crash"
	// FaultShardFailover kills shard Shard's primary mid-run — WAL handle
	// dropped first, then the listener, the same death model as FaultCrash
	// — and promotes its warm follower: catch-up from the dead primary's
	// log directory, epoch-bumping requeue of orphaned claims, a fresh
	// server, and a proxy repoint. Requires a sharded run (Config.Shards
	// >= 2); each shard has one standby, so at most one failover per
	// shard per run.
	FaultShardFailover FaultKind = "shard-failover"
)

// FaultEvent is one scheduled chaos action. At is the offset from run
// start. Value and Dur are kind-specific (see the kind docs); zero means
// the kind's default.
type FaultEvent struct {
	At    time.Duration `json:"at"`
	Kind  FaultKind     `json:"kind"`
	Value time.Duration `json:"value,omitempty"`
	Dur   time.Duration `json:"dur,omitempty"`
	Shard int           `json:"shard,omitempty"` // target of a shard-scoped fault
}

func (f FaultEvent) String() string {
	switch f.Kind {
	case FaultRefuse, FaultPoolCrash:
		return fmt.Sprintf("%v:%s:%v", f.At, f.Kind, f.Value)
	case FaultLatency:
		return fmt.Sprintf("%v:%s:%v:%v", f.At, f.Kind, f.Value, f.Dur)
	case FaultShardFailover:
		return fmt.Sprintf("%v:%s:%d", f.At, f.Kind, f.Shard)
	default:
		return fmt.Sprintf("%v:%s", f.At, f.Kind)
	}
}

// Fault window defaults, applied by ParseFaults/DefaultFaults when the
// DSL omits them.
const (
	defaultRefuseWindow  = 500 * time.Millisecond
	defaultLatency       = 20 * time.Millisecond
	defaultLatencyWindow = time.Second
	defaultPoolRestart   = 200 * time.Millisecond
)

// faultArity is the most arguments each fault kind takes; omitted
// arguments take the kind's default.
var faultArity = map[FaultKind]int{
	FaultKill:          0,
	FaultCrash:         0,
	FaultTornCrash:     0,
	FaultRefuse:        1,
	FaultPoolCrash:     1,
	FaultShardFailover: 1,
	FaultLatency:       2,
}

// parseDuration parses a DSL offset or window: a Go duration, never
// negative.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %q", s)
	}
	return d, err
}

// ParseFaults parses the fault-schedule DSL: semicolon-separated
// AT:KIND[:ARG[:ARG2]] entries, where AT and the args are non-negative Go
// durations (the shard-failover argument is a shard index). Each kind
// takes at most its own number of arguments.
//
//	5s:kill                  kill active connections at t=5s
//	8s:refuse:1s             refuse new connections from t=8s for 1s
//	12s:latency:50ms:2s      inject 50ms per-chunk latency from t=12s for 2s
//	15s:pool-crash:500ms     crash the worker pool at t=15s, restart after 500ms
//	20s:crash                daemon crash + recovery at t=20s
//	25s:torn-crash           daemon crash with a torn WAL tail at t=25s
//	30s:shard-failover:1     kill shard 1's primary at t=30s, promote its follower
//
// The keywords "default", "shard-failover", and "none" expand to
// DefaultFaults(d)/ShardFailoverFaults(d)/no faults when given to
// ParseFaultsFor; events are returned sorted by At.
func ParseFaults(s string) ([]FaultEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	var events []FaultEvent
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("loadgen: fault %q: want AT:KIND[:ARG[:ARG2]]", entry)
		}
		at, err := parseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("loadgen: fault %q: bad offset: %v", entry, err)
		}
		ev := FaultEvent{At: at, Kind: FaultKind(parts[1])}
		arity, known := faultArity[ev.Kind]
		if !known {
			return nil, fmt.Errorf("loadgen: fault %q: unknown kind %q", entry, parts[1])
		}
		if len(parts)-2 > arity {
			return nil, fmt.Errorf("loadgen: fault %q: %s takes at most %d argument(s)", entry, ev.Kind, arity)
		}
		arg := func(i int, def time.Duration) (time.Duration, error) {
			if len(parts) <= i {
				return def, nil
			}
			return parseDuration(parts[i])
		}
		switch ev.Kind {
		case FaultRefuse:
			if ev.Value, err = arg(2, defaultRefuseWindow); err != nil {
				return nil, fmt.Errorf("loadgen: fault %q: bad window: %v", entry, err)
			}
		case FaultLatency:
			if ev.Value, err = arg(2, defaultLatency); err != nil {
				return nil, fmt.Errorf("loadgen: fault %q: bad latency: %v", entry, err)
			}
			if ev.Dur, err = arg(3, defaultLatencyWindow); err != nil {
				return nil, fmt.Errorf("loadgen: fault %q: bad window: %v", entry, err)
			}
		case FaultPoolCrash:
			if ev.Value, err = arg(2, defaultPoolRestart); err != nil {
				return nil, fmt.Errorf("loadgen: fault %q: bad restart delay: %v", entry, err)
			}
		case FaultShardFailover:
			if len(parts) == 3 {
				n, cerr := strconv.Atoi(parts[2])
				if cerr != nil || n < 0 {
					return nil, fmt.Errorf("loadgen: fault %q: bad shard index %q", entry, parts[2])
				}
				ev.Shard = n
			}
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// fracOf places a fault at fraction f of a run of length d; winOf sizes a
// fault window the same way, clamped to the DSL defaults' order of
// magnitude.
func fracOf(d time.Duration, f float64) time.Duration { return time.Duration(f * float64(d)) }

func winOf(d time.Duration, f float64, min, max time.Duration) time.Duration {
	w := fracOf(d, f)
	if w < min {
		w = min
	}
	if w > max {
		w = max
	}
	return w
}

// DefaultFaults builds the full fault schedule for a run of length d:
// every single-stack fault kind, spread across the middle of the run so
// the tail leaves room to drain. Windows scale with d but are clamped to
// the DSL defaults' order of magnitude.
func DefaultFaults(d time.Duration) []FaultEvent {
	return []FaultEvent{
		{At: fracOf(d, 0.15), Kind: FaultKill},
		{At: fracOf(d, 0.25), Kind: FaultRefuse, Value: winOf(d, 0.04, 100*time.Millisecond, time.Second)},
		{At: fracOf(d, 0.40), Kind: FaultLatency, Value: defaultLatency, Dur: winOf(d, 0.08, 200*time.Millisecond, 2*time.Second)},
		{At: fracOf(d, 0.55), Kind: FaultPoolCrash, Value: defaultPoolRestart},
		{At: fracOf(d, 0.68), Kind: FaultCrash},
		{At: fracOf(d, 0.82), Kind: FaultTornCrash},
		{At: fracOf(d, 0.90), Kind: FaultKill},
	}
}

// ShardFailoverFaults builds the sharded-run chaos schedule for a run of
// length d: the network and pool faults from DefaultFaults interleaved
// with two primary kills — shard 0 mid-ramp, shard 1 late, each promoting
// its follower. The crash faults stay out: they exercise the single-stack
// reboot-in-place recovery path, which a shard group replaces with
// failover.
func ShardFailoverFaults(d time.Duration) []FaultEvent {
	return []FaultEvent{
		{At: fracOf(d, 0.12), Kind: FaultKill},
		{At: fracOf(d, 0.25), Kind: FaultShardFailover, Shard: 0},
		{At: fracOf(d, 0.38), Kind: FaultLatency, Value: defaultLatency, Dur: winOf(d, 0.08, 200*time.Millisecond, 2*time.Second)},
		{At: fracOf(d, 0.52), Kind: FaultRefuse, Value: winOf(d, 0.04, 100*time.Millisecond, time.Second)},
		{At: fracOf(d, 0.62), Kind: FaultPoolCrash, Value: defaultPoolRestart},
		{At: fracOf(d, 0.75), Kind: FaultShardFailover, Shard: 1},
		{At: fracOf(d, 0.88), Kind: FaultKill},
	}
}

// TenantFaults builds the multi-tenant chaos schedule for a run of
// length d: the network and pool faults from DefaultFaults, without the
// daemon crash faults. A crash reboot would sever the run-long streaming
// watch subscriptions whose delivery accounting the tenant invariants
// assert; the noisy-neighbor pressure itself comes from the plan (the
// noisy tenant's ingest rate), not from the schedule.
func TenantFaults(d time.Duration) []FaultEvent {
	return []FaultEvent{
		{At: fracOf(d, 0.15), Kind: FaultKill},
		{At: fracOf(d, 0.30), Kind: FaultRefuse, Value: winOf(d, 0.04, 100*time.Millisecond, time.Second)},
		{At: fracOf(d, 0.50), Kind: FaultLatency, Value: defaultLatency, Dur: winOf(d, 0.08, 200*time.Millisecond, 2*time.Second)},
		{At: fracOf(d, 0.68), Kind: FaultPoolCrash, Value: defaultPoolRestart},
		{At: fracOf(d, 0.88), Kind: FaultKill},
	}
}

// ParseFaultsFor resolves a -faults flag value: "default" expands to
// DefaultFaults(d), "shard-failover" to ShardFailoverFaults(d), "tenant"
// to TenantFaults(d), "none"/"" to an empty schedule, anything else is
// parsed as the DSL.
func ParseFaultsFor(s string, d time.Duration) ([]FaultEvent, error) {
	switch strings.TrimSpace(s) {
	case "default":
		return DefaultFaults(d), nil
	case "shard-failover":
		return ShardFailoverFaults(d), nil
	case "tenant":
		return TenantFaults(d), nil
	}
	return ParseFaults(s)
}

// validateFaults rejects schedule/topology mismatches up front: the crash
// faults reboot the single stack in place and have no meaning for a shard
// group (and would sever the run-long watch subscriptions a multi-tenant
// run audits), shard-failover needs a group, a real target, and an
// unspent standby (each shard has exactly one).
func validateFaults(faults []FaultEvent, shards, tenants int) error {
	failedOver := map[int]bool{}
	for _, f := range faults {
		switch f.Kind {
		case FaultCrash, FaultTornCrash:
			if shards > 1 {
				return fmt.Errorf("loadgen: fault %s targets the single-stack recovery path; not supported with %d shards", f, shards)
			}
			if tenants > 0 {
				return fmt.Errorf("loadgen: fault %s reboots the metadata server; not supported with %d tenants (streaming watches must stay connected)", f, tenants)
			}
		case FaultShardFailover:
			if shards <= 1 {
				return fmt.Errorf("loadgen: fault %s requires a sharded run (Shards >= 2)", f)
			}
			if f.Shard >= shards {
				return fmt.Errorf("loadgen: fault %s targets shard %d of a %d-shard group", f, f.Shard, shards)
			}
			if failedOver[f.Shard] {
				return fmt.Errorf("loadgen: fault %s: shard %d already failed over (one standby per shard)", f, f.Shard)
			}
			failedOver[f.Shard] = true
		}
	}
	return nil
}
