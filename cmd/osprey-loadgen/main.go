// osprey-loadgen drives the deterministic load-generation and chaos
// harness (internal/loadgen) against a real in-process OSPREY service
// stack and writes a JSON run report.
//
//	osprey-loadgen -seed 42 -duration 30s -rate 150 -workers 8 -faults default -runs 2 -out report.json
//	osprey-loadgen -shards 3 -faults shard-failover -runs 2 -out report.json
//	osprey-loadgen -tenants 3 -faults tenant -runs 2 -out report.json
//
// The task substrate is a group of -shards N WAL-backed members, each
// behind its own chaos proxy. One member (the default) is the single
// daemon stack, which the crash faults reboot in place. With N >= 2 each
// member also gets a warm follower, and the "shard-failover" schedule
// kills primaries mid-run, promoting their followers. With -tenants N >= 1
// the AERO side runs multi-tenant: bearer-token auth, per-tenant quotas
// with one noisy neighbor, private streams, live isolation probes, and a
// streaming watch subscription per tenant. With -runs N > 1 the harness
// runs N times with the same seed and the workload digests must match
// across runs — the determinism contract.
// Exit codes: 0 all runs passed, 1 an invariant failed or determinism
// broke, 2 usage or infrastructure error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"osprey/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("osprey-loadgen", flag.ExitOnError)
	var (
		seed     = fs.Uint64("seed", 42, "workload seed (same seed + shape = same plan)")
		duration = fs.Duration("duration", 10*time.Second, "workload window")
		rate     = fs.Float64("rate", 100, "task submissions per second")
		workers  = fs.Int("workers", 6, "worker goroutines")
		closed   = fs.Bool("closed", false, "closed-loop pacing (in-flight window instead of wall clock)")
		window   = fs.Int("window", 0, "closed-loop in-flight cap (default 2x workers)")
		ingest   = fs.Float64("ingest-rate", 10, "AERO data-version ingests per second, per tenant in tenant mode (<0 disables)")
		shards   = fs.Int("shards", 1, "task-substrate shards (>= 2 runs a replicated shard group with warm followers)")
		tenants  = fs.Int("tenants", 0, "multi-tenant AERO mode: tenants with bearer tokens, per-tenant quotas, private streams, streaming watches (0 = legacy single-tenant)")
		noisyF   = fs.Float64("noisy-factor", 3, "noisy tenant's ingest-rate multiplier (tenant mode)")
		quota    = fs.Float64("tenant-quota", 0, "per-tenant ingest quota in req/s (default 2x ingest-rate)")
		burst    = fs.Float64("tenant-burst", 0, "per-tenant quota burst (default 12)")
		faults   = fs.String("faults", "default", `fault schedule: "default", "shard-failover", "tenant", "none", or DSL like "5s:kill;8s:refuse:1s;12s:latency:50ms:2s;15s:pool-crash:500ms;20s:crash;25s:torn-crash;30s:shard-failover:1"`)
		dataDir  = fs.String("data-dir", "", "WAL root (default: temp dir, removed on pass)")
		out      = fs.String("out", "", "write the JSON report here (default stdout)")
		runs     = fs.Int("runs", 1, "repeat the run N times and require identical workload digests")
		verbose  = fs.Bool("v", false, "log faults and recovery events to stderr")
	)
	fs.Parse(os.Args[1:])
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "osprey-loadgen: -runs must be >= 1")
		return 2
	}
	schedule, err := loadgen.ParseFaultsFor(*faults, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osprey-loadgen:", err)
		return 2
	}
	cfg := loadgen.Config{
		Seed:        *seed,
		Duration:    *duration,
		Rate:        *rate,
		Workers:     *workers,
		Closed:      *closed,
		Window:      *window,
		IngestRate:  *ingest,
		Shards:      *shards,
		Tenants:     *tenants,
		NoisyFactor: *noisyF,
		TenantQuota: *quota,
		TenantBurst: *burst,
		DataDir:     *dataDir,
		Faults:      schedule,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	exit := 0
	var last *loadgen.Report
	for i := 0; i < *runs; i++ {
		report, err := loadgen.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osprey-loadgen: run %d/%d: %v\n", i+1, *runs, err)
			return 2
		}
		topo := fmt.Sprintf("crashes=%d", report.Totals.Crashes)
		if report.Shards > 1 {
			topo = fmt.Sprintf("shards=%d failovers=%d", report.Shards, report.Failovers)
		}
		if report.TenantCount > 0 {
			var throttled int64
			for _, tr := range report.Tenants {
				throttled += tr.Throttled
			}
			topo += fmt.Sprintf(" tenants=%d throttled=%d probes=%d", report.TenantCount, throttled, report.ProbeChecks)
		}
		fmt.Fprintf(os.Stderr, "osprey-loadgen: run %d/%d: pass=%v digest=%s tasks=%d complete=%d failed=%d %s throughput=%.1f/s\n",
			i+1, *runs, report.Pass, report.Workload.Digest[:12], report.Totals.Submitted,
			report.Totals.Complete, report.Totals.Failed, topo, report.ThroughputPerSec)
		if !report.Pass {
			exit = 1
			for _, f := range report.FailedInvariants() {
				fmt.Fprintln(os.Stderr, "osprey-loadgen: invariant failed:", f)
			}
			if report.DataDir != "" {
				fmt.Fprintln(os.Stderr, "osprey-loadgen: data dir kept at", report.DataDir)
			}
		}
		if last != nil && report.Workload.Digest != last.Workload.Digest {
			fmt.Fprintf(os.Stderr, "osprey-loadgen: determinism violation: digest %s != %s\n",
				report.Workload.Digest, last.Workload.Digest)
			exit = 1
		}
		last = report
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osprey-loadgen:", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := last.WriteJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, "osprey-loadgen:", err)
		return 2
	}
	return exit
}
