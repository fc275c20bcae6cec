// Command bench is the repository's end-to-end benchmark. It drives four
// closed-loop workloads through the system's public APIs (osprey,
// internal/aero, internal/emews, internal/wal, internal/obs) and prints
// every end-to-end metric (untraced run) or every per-layer metric
// (traced run) declared in ../BENCHMARK.json, as the last line of its
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of a checkout through bench/run.sh, which builds it
// there:
//
//	bash bench/run.sh --workload tasks-memory --seed 1 --seconds 10 --trace 0
//
// It exits 1 when a correctness check fails and 2 on a usage or set-up
// error. See bench/README.md for the workloads, the metric dictionary and
// the paired-run procedure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. The same lists are declared in
// BENCHMARK.json; TestMetricNamesMatchBenchmarkJSON keeps them in sync.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_pct", "%"},
	{"bench.obs_spans_lost", "count"},
	{"go.cpu_ms_per_op", "ms"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.heap_peak_mb", "MB"},

	{"aero.client.calls_per_op", "count"},
	{"aero.client.self_pct", "%"},
	{"aero.wire.pct_of_rtt", "%"},
	{"aero.ingest.poll.self_pct", "%"},
	{"aero.ingest.transform.self_pct", "%"},
	{"aero.ingest.store.self_pct", "%"},
	{"aero.analysis.self_pct", "%"},
	{"aero.analysis.slowest_plant_pct", "%"},
	{"aero.analysis.aggregate_pct", "%"},
	{"aero.analysis.errors", "count"},
	{"aero.watch.deliver_pct", "%"},
	{"sched.job.self_pct", "%"},
	{"scheduler.wait_pct", "%"},
	{"parallel.busy_pct", "%"},
	{"parallel.imbalance_pct", "%"},

	{"emews.client.calls_per_op", "count"},
	{"emews.client.errors", "count"},
	{"emews.client.submit_pct", "%"},
	{"emews.client.pop_pct", "%"},
	{"emews.client.finish_pct", "%"},
	{"emews.net.requests_per_op", "count"},
	{"emews.wire.pct_of_rtt", "%"},
	{"emews.taskdb.pop_wait_pct", "%"},
	{"emews.taskdb.queue_depth_max", "count"},
	{"emews.shardclient.skew", "ratio"},
	{"emews.replica.lag_records_p50", "count"},
	{"emews.replica.lag_records_max", "count"},
	{"emews.replica.records_per_op", "count"},
	{"emews.pool.util_pct", "%"},
	{"emews.pool.handler_pct", "%"},

	{"wal.primary.appends_per_op", "count"},
	{"wal.primary.fsyncs_per_op", "count"},
	{"wal.primary.kb_per_op", "KB"},
	{"wal.follower.appends_per_op", "count"},
	{"wal.follower.fsyncs_per_op", "count"},
	{"wal.follower.kb_per_op", "KB"},
}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports, fixed per workload so
	// the metric means the same thing however many ops a run completes.
	tail float64
	// params describes the inputs for the env header.
	params func(quick bool) map[string]any
	run    func(rc *runConfig) (*phase, error)
}

var workloads = []workload{
	{"rt-campaign", 80, rtParams, runRtCampaign},
	{"gsa-interleaved", 99, gsaParams, runGSA},
	{"tasks-durable", 99, tasksParams, runTasksDurable},
	{"tasks-memory", 99, tasksParams, runTasksMemory},
}

// runConfig is what a workload run receives.
type runConfig struct {
	seed    uint64
	seconds float64
	quick   bool
	tr      *tracer // nil: untraced
	scratch string  // directory for WALs and other files of this run
	gsaRef  string  // optional reference file for the GSA indices
}

// phase is the outcome of one measured run of a workload.
type phase struct {
	setups    []time.Duration // every set-up performed
	segs      []segment       // the measured ops, in segments
	attempted int
	failed    int
	heapPeak  uint64             // bytes, sampled at 10 Hz
	allocs    uint64             // bytes allocated while measuring
	cpu       time.Duration      // process CPU time while measuring
	layers    map[string]float64 // per-layer metrics (traced runs)
	table     []string           // human-readable layer detail
	issues    []string           // failed correctness checks
}

// segment is a slice of a run measured on its own — one second of a task
// loop, one GSA study, one rt campaign. End-to-end metrics are medians
// over segments, so a burst of noise from the neighbours moves one segment
// rather than the run.
type segment struct {
	lat  []time.Duration // latency of every op completed in the segment
	busy time.Duration   // wall time the segment measured
}

func (ph *phase) fail(format string, args ...any) {
	ph.issues = append(ph.issues, fmt.Sprintf(format, args...))
}

// ops is the number of measured ops.
func (ph *phase) ops() int {
	n := 0
	for _, s := range ph.segs {
		n += len(s.lat)
	}
	return n
}

// busy is the measured wall time.
func (ph *phase) busy() time.Duration {
	var d time.Duration
	for _, s := range ph.segs {
		d += s.busy
	}
	return d
}

// throughput is measured ops per second of measured time over the run.
func (ph *phase) throughput() float64 {
	return ratio(float64(ph.ops()), ph.busy().Seconds())
}

// endToEnd computes throughput and median latency (ms) as medians over
// segments, and the tail latency as the median over tailGroups, each of
// which leaves at least ten samples beyond the percentile. When the whole
// run leaves fewer than ten beyond tail, the highest percentile it
// supports is used instead and returned as tailUsed.
func (ph *phase) endToEnd(tail float64) (thr, p50, tailMS, tailUsed float64) {
	var thrs, p50s, tails []float64
	for _, s := range ph.segs {
		ms := durationsMS(s.lat)
		thrs = append(thrs, ratio(float64(len(ms)), s.busy.Seconds()))
		p50s = append(p50s, median(ms))
	}
	tailUsed = min(tail, tailPercentile(ph.ops()))
	for _, g := range tailGroups(ph.segs, tailUsed) {
		tails = append(tails, quantile(g, tailUsed/100))
	}
	return median(thrs), median(p50s), median(tails), tailUsed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command: it writes the env header and result lines to stdout
// and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceMode := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	profileDir := fs.String("profile", "", "write CPU, alloc and mutex profiles per workload to this directory")
	quick := fs.Bool("quick", false, "tiny sizes, for the smoke test")
	gsaRef := fs.String("gsa-ref", "", "GSA reference indices (default: the one next to the benchmark sources, if found)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		return 2
	}
	if *gsaRef == "" {
		*gsaRef = defaultGSARef()
	}

	// -workload all reports both kinds of metric for every workload, each
	// prefixed with the workload and the kind.
	all := *name == "all"
	final := &result{Correct: true}
	for _, w := range selected {
		out, err := runWorkload(stdout, w, options{
			seed: *seed, seconds: *seconds, traced: all || *traceMode == 1, quick: *quick,
			profile: *profileDir, gsaRef: *gsaRef,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		final.Correct = final.Correct && out.correct
		final.Attempted += out.attempted
		final.Failed += out.failed
		switch {
		case all:
			if final.Metrics == nil {
				final.Metrics = map[string]metricValue{}
			}
			for k, v := range out.e2e {
				final.Metrics[w.name+".e2e."+k] = v
			}
			for k, v := range out.layer {
				final.Metrics[w.name+".layer."+k] = v
			}
		case *traceMode == 1:
			final.Metrics = out.layer
		default:
			final.Metrics = out.e2e
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type options struct {
	seed          uint64
	seconds       float64
	traced, quick bool
	profile       string
	gsaRef        string
}

// outcome is what one workload reports: the end-to-end metrics of its
// untraced run and, when traced, the per-layer metrics of its traced run.
type outcome struct {
	correct           bool
	attempted, failed int // over both runs
	e2e, layer        map[string]metricValue
}

// runWorkload performs one untraced run and, when traced, a traced run
// after it.
func runWorkload(stdout io.Writer, w workload, o options) (*outcome, error) {
	env := envHeader(w, o)
	if b, err := json.Marshal(map[string]any{"env": env}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	rc := &runConfig{seed: o.seed, seconds: o.seconds, quick: o.quick, gsaRef: o.gsaRef}
	stopProfile, err := startProfile(o.profile, w.name)
	if err != nil {
		return nil, err
	}
	base, err := runPhase(w, rc)
	if err != nil {
		stopProfile()
		return nil, err
	}
	phases := []*phase{base}
	var traced *phase
	if o.traced {
		rc.tr = newTracer()
		if traced, err = runPhase(w, rc); err != nil {
			stopProfile()
			return nil, err
		}
		phases = append(phases, traced)
	}
	stopProfile()

	res := &outcome{correct: true}
	for _, ph := range phases {
		res.attempted += ph.attempted
		res.failed += ph.failed
		for _, issue := range ph.issues {
			res.correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", w.name, issue)
		}
	}
	if res.attempted == 0 {
		res.correct = false
		fmt.Fprintf(os.Stderr, "bench: %s: no op attempted\n", w.name)
		res.attempted = 1 // the contract requires attempted >= 1
		res.failed = 1
	}
	if res.failed > 0 {
		res.correct = false
	}

	thr, p50, tail, tailUsed := base.endToEnd(w.tail)
	setups := make([]float64, len(base.setups))
	for i, d := range base.setups {
		setups[i] = d.Seconds()
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d ops in %.2fs over %d segments, %d set-ups (median %.6fs); medians over segments: %.2f ops/s, p50 %.3f ms; p%g over %d groups %.3f ms\n",
		w.name, base.ops(), base.busy().Seconds(), len(base.segs), len(setups), median(setups), thr, p50, tailUsed, len(tailGroups(base.segs, tailUsed)), tail)
	if tailUsed != w.tail {
		fmt.Fprintf(os.Stderr, "bench: %s: too few ops for p%g; latency_tail_ms is p%g\n", w.name, w.tail, tailUsed)
	}
	res.e2e = map[string]metricValue{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {thr, "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_tail_ms":  {tail, "ms"},
	}
	if !o.traced {
		return res, nil
	}

	layers := traced.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	layers["bench.trace_overhead_pct"] = 100 * (ratio(base.throughput(), traced.throughput()) - 1)
	layers["bench.obs_spans_lost"] = float64(rc.tr.obsLost)
	// The runtime's costs come from the untraced run: spans allocate.
	layers["go.cpu_ms_per_op"] = 1e3 * ratio(base.cpu.Seconds(), float64(base.ops()))
	layers["go.alloc_kb_per_op"] = ratio(float64(base.allocs)/1024, float64(base.ops()))
	layers["go.heap_peak_mb"] = float64(base.heapPeak) / (1 << 20)
	res.layer = map[string]metricValue{}
	for _, m := range perLayer {
		res.layer[m.name] = metricValue{layers[m.name], m.unit}
	}
	printLayerTable(w.name, res.layer, traced.table)

	path := filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	spans := rc.tr.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans written to %s; tracing overhead %.1f%% of untraced throughput\n",
		w.name, len(spans), path, layers["bench.trace_overhead_pct"])
	return res, nil
}

// runPhase runs the workload once in a scratch directory of its own, so no
// run recovers another's WAL, and removes the directory afterwards.
func runPhase(w workload, rc *runConfig) (*phase, error) {
	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc.scratch = dir
	return w.run(rc)
}

func printLayerTable(name string, metrics map[string]metricValue, detail []string) {
	var keys []string
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "\nper-layer metrics, %s (0 = layer not exercised):\n", name)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-36s %12.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	if len(detail) > 0 {
		fmt.Fprintf(os.Stderr, "layer detail, %s:\n", name)
		for _, line := range detail {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
	}
	fmt.Fprintln(os.Stderr)
}

// buildDir is where the benchmark writes: .bench_build in the working
// directory, which bench/run.sh makes the root of the checkout.
func buildDir() string {
	const dir = ".bench_build"
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write
	return dir
}

// envHeader records where and how the numbers were taken.
func envHeader(w workload, o options) map[string]any {
	rev := "unknown"
	modified := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":           w.name,
		"seed":               o.seed,
		"seconds":            o.seconds,
		"traced":             o.traced,
		"quick":              o.quick,
		"params":             w.params(o.quick),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"osprey_parallelism": os.Getenv("OSPREY_PARALLELISM"),
		"go_version":         runtime.Version(),
		"cpu_model":          cpuModel(),
		"vcs_revision":       rev,
		"vcs_modified":       modified,
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"time":               time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// startProfile begins CPU and mutex profiling into dir; the returned
// function stops it and writes the alloc and mutex profiles.
func startProfile(dir, name string) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, name+"-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	prevMutex := runtime.SetMutexProfileFraction(5)
	return func() {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
		}
		for _, p := range []string{"allocs", "mutex"} {
			if err := writeProfile(filepath.Join(dir, name+"-"+p+".pprof"), p); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
		runtime.SetMutexProfileFraction(prevMutex)
	}, nil
}

func writeProfile(path, profile string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("%s profile: %w", profile, err)
	}
	return f.Close()
}

// errTimeout marks an op that did not complete in time.
var errTimeout = errors.New("timed out")
