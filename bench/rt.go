package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"osprey"
	"osprey/internal/aero"
	"osprey/internal/obs"
	"osprey/internal/wal"
)

// rt-campaign: use case 1 end to end. A campaign is a fresh deployment —
// a WAL-backed AERO store (fsync always) behind its HTTP server, the
// platform using it through aero.NewClient, the four-plant pipeline and
// one SSE subscriber on the ensemble — followed by rtCycles cycles of
// Advance(2) + PollAll. An op is one cycle, timed from the advance to the
// SSE update frame of the next ensemble version.
const (
	rtScenarioDays = 195
	rtStartDay     = 70
	rtAdvanceDays  = 2
	rtPlants       = 4
	// rtMaxMAE bounds the ensemble's mean absolute error against the
	// scenario's true R(t) over days [14, last-7] at the end of a campaign.
	rtMaxMAE = 0.15
)

// rtCampaignSeeds are the pipeline seeds campaigns run on: the first 64
// seeds from 1 whose 10-cycle campaign published an ensemble in every
// cycle when the benchmark was added. The others hit the known
// rt-aggregate window mismatch (see bench/README.md). The list is fixed,
// so a change to the pipeline never changes which data are measured.
var rtCampaignSeeds = []uint64{
	1, 2, 3, 6, 7, 8, 9, 11, 13, 14, 15, 16, 19, 20, 21, 23,
	24, 25, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37, 39, 41, 42, 44,
	46, 47, 51, 52, 53, 54, 56, 59, 61, 62, 63, 64, 65, 66, 67, 69,
	70, 71, 72, 73, 77, 79, 80, 81, 82, 83, 84, 86, 88, 91, 92, 96,
}

// rtCampaignSeed is the pipeline seed of a run's campaign j: consecutive
// entries of rtCampaignSeeds from an offset derived from the run's seed.
func rtCampaignSeed(seed uint64, j int) uint64 {
	n := uint64(len(rtCampaignSeeds))
	return rtCampaignSeeds[(derive(seed, 0x7274)%n+uint64(j))%n]
}

type rtSize struct {
	label     string
	cycles    int // per campaign
	goldstein osprey.GoldsteinOptions
}

var (
	rtFull  = rtSize{"full", 10, osprey.GoldsteinOptions{Iterations: 200, BurnIn: 300, Thin: 2}}
	rtQuick = rtSize{"quick", 2, osprey.GoldsteinOptions{Iterations: 20, BurnIn: 20, Thin: 1}}
)

func rtSizeFor(quick bool) rtSize {
	if quick {
		return rtQuick
	}
	return rtFull
}

func rtParams(quick bool) map[string]any {
	s := rtSizeFor(quick)
	return map[string]any{
		"scenario_days": rtScenarioDays, "start_day": rtStartDay, "advance_days": rtAdvanceDays,
		"cycles_per_campaign": s.cycles, "goldstein_iterations": s.goldstein.Iterations,
		"goldstein_burn_in": s.goldstein.BurnIn, "goldstein_thin": s.goldstein.Thin,
		"aero_fsync": "always", "max_mae": rtMaxMAE,
	}
}

// rtLayers is the static layer tree of a cycle, for self times.
var rtLayers = map[string][]string{
	"rt.cycle":         {"osprey.advance", "osprey.poll_all", "aero.watch.deliver"},
	"osprey.poll_all":  {"aero.ingest.poll", "aero.analysis"},
	"aero.ingest.poll": {"aero.ingest.transform", "aero.ingest.store", "aero.client"},
	"aero.analysis":    {"sched.job", "aero.client"},
}

// runRtCampaign runs whole campaigns until the measured time is used up.
func runRtCampaign(rc *runConfig) (*phase, error) {
	size := rtSizeFor(rc.quick)
	ph := &phase{}
	budget := time.Duration(rc.seconds * float64(time.Second))
	acc := &rtAccount{}
	// A failed cycle ends the run: each one may have waited rtFrameTimeout.
	for j := 0; ph.failed == 0 && (j == 0 || ph.busy() < budget); j++ {
		seed := rtCampaignSeed(rc.seed, j)
		if err := runCampaign(rc, ph, acc, filepath.Join(rc.scratch, fmt.Sprintf("rt-%d", j)), seed, size); err != nil {
			return nil, err
		}
	}
	acc.layers(rc, ph)
	return ph, nil
}

// campaign is one running use-case-1 deployment.
type campaign struct {
	closers []func()
	wp      *osprey.WastewaterPipeline
	watch   *sseWatch
}

func (c *campaign) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// openCampaign is the set-up: everything up to a published first ensemble
// (the backfill of StartDay days) with the SSE subscriber attached.
func openCampaign(rc *runConfig, dir string, seed uint64, size rtSize) (*campaign, error) {
	c := &campaign{}
	l, err := wal.Open(dir, wal.Options{Name: "wal.aero", Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	c.closers = append(c.closers, func() { l.Close() })
	store, err := aero.OpenStore(l)
	if err != nil {
		c.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	hs := &http.Server{Handler: aero.NewServer(store)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	c.closers = append(c.closers, func() {
		// Shutdown waits for the SSE handler to return, so its long
		// request is timed before the next campaign measures.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-served
		http.DefaultClient.CloseIdleConnections()
	})
	base := "http://" + ln.Addr().String()

	var meta aero.Metadata = aero.NewClient(base)
	if rc.tr != nil {
		meta = timedMeta{meta, rc.tr}
	}
	p, err := osprey.New(osprey.Config{Identity: "bench", Meta: meta})
	if err != nil {
		c.close()
		return nil, err
	}
	c.closers = append(c.closers, p.Shutdown)
	wp, err := osprey.NewWastewaterPipeline(p, osprey.WastewaterConfig{
		ScenarioDays: rtScenarioDays, StartDay: rtStartDay, Goldstein: size.goldstein, Seed: seed,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.wp = wp
	c.closers = append(c.closers, wp.Close)
	if c.watch, err = dialWatch(base, wp.Aggregate.OutputUUIDs[0]); err != nil {
		c.close()
		return nil, err
	}
	c.closers = append(c.closers, c.watch.close)
	if _, err := wp.PollAll(); err != nil {
		c.close()
		return nil, fmt.Errorf("backfill: %w", err)
	}
	if f, err := c.watch.next(); err != nil || f.Version != 1 {
		c.close()
		return nil, fmt.Errorf("backfill published no ensemble (frame %+v, %v)", f, err)
	}
	return c, nil
}

// rtAccount accumulates what the per-layer metrics need across campaigns.
type rtAccount struct {
	cycles  []interval // wall-clock extent of every cycle (tracer ns)
	deliver time.Duration
	obs     obsDelta // the cycles' change of the obs registry
}

func runCampaign(rc *runConfig, ph *phase, acc *rtAccount, dir string, seed uint64, size rtSize) error {
	errs0 := obs.GetCounter("aero.analysis.errors").Value()
	start := time.Now()
	c, err := openCampaign(rc, dir, seed, size)
	if err != nil {
		return fmt.Errorf("campaign seed %d: set-up: %w", seed, err)
	}
	defer c.close()
	ph.setups = append(ph.setups, time.Since(start))

	rc.tr.skipObs()
	win := openObsWindow()
	smp := startSampler(nil)
	var seg segment
	for cyc := 1; cyc <= size.cycles; cyc++ {
		ph.attempted++
		if err := runCycle(rc, &seg, acc, c, cyc+1); err != nil {
			ph.failed++
			ph.fail("campaign seed %d cycle %d: %v", seed, cyc, err)
			break
		}
	}
	acc.obs.add(win.close())
	smp.finish(ph)
	ph.segs = append(ph.segs, seg)
	if n := obs.GetCounter("aero.analysis.errors").Value() - errs0; n != 0 {
		ph.fail("campaign seed %d: %d analysis runs failed", seed, n)
	}
	checkEnsemble(ph, c.wp, seed, size)
	return nil
}

// runCycle performs one op: advance, poll every feed, wait for the SSE
// frame of ensemble version want.
func runCycle(rc *runConfig, seg *segment, acc *rtAccount, c *campaign, want int) error {
	tr := rc.tr
	start := time.Now()
	c.wp.Advance(rtAdvanceDays)
	tr.record("osprey.advance", start)
	pollStart := time.Now()
	ups, err := c.wp.PollAll()
	pollEnd := time.Now()
	tr.record("osprey.poll_all", pollStart)
	if err != nil {
		return fmt.Errorf("PollAll: %w", err)
	}
	if ups != rtPlants {
		return fmt.Errorf("PollAll saw %d updated feeds, want %d", ups, rtPlants)
	}
	f, err := c.watch.next()
	if err != nil {
		return err
	}
	if f.Version != want {
		return fmt.Errorf("SSE frame for ensemble version %d, want %d", f.Version, want)
	}
	end := f.recv
	if pollEnd.After(end) {
		end = pollEnd
	}
	seg.lat = append(seg.lat, f.recv.Sub(start))
	seg.busy += end.Sub(start)
	if tr != nil {
		tr.recordAt("aero.watch.deliver", f.Time, f.recv, "")
		tr.recordAt("rt.cycle", start, end, "")
		tr.drainObs()
		acc.cycles = append(acc.cycles, interval{tr.ns(start), tr.ns(end)})
		acc.deliver += f.recv.Sub(f.Time)
	}
	return nil
}

// checkEnsemble verifies the campaign's final ensemble: its window and its
// error against the scenario's ground truth.
func checkEnsemble(ph *phase, wp *osprey.WastewaterPipeline, seed uint64, size rtSize) {
	ens, err := wp.LatestEnsemble()
	if err != nil {
		ph.fail("campaign seed %d: read ensemble: %v", seed, err)
		return
	}
	if want := rtStartDay + size.cycles*rtAdvanceDays + 1; len(ens.Days) != want {
		ph.fail("campaign seed %d: ensemble covers %d days, want %d", seed, len(ens.Days), want)
		return
	}
	truth := wp.TruthRt()
	sum, n := 0.0, 0
	for d := 14; d <= len(ens.Days)-7; d++ {
		sum += math.Abs(ens.Median[d] - truth[d])
		n++
	}
	mae := sum / float64(n)
	fmt.Fprintf(os.Stderr, "bench: rt campaign seed %d: ensemble MAE %.4f over days [14, %d]\n", seed, mae, len(ens.Days)-7)
	if !(mae <= rtMaxMAE) {
		ph.fail("campaign seed %d: ensemble MAE %.4f exceeds %.2f", seed, mae, rtMaxMAE)
	}
}

// layers derives the per-layer metrics of the traced cycles.
func (acc *rtAccount) layers(rc *runConfig, ph *phase) {
	m := map[string]float64{}
	ph.layers = m
	cycles := float64(ph.ops())
	wall := float64(ph.busy())
	walPerOp(m, "wal.primary", "wal.aero", acc.obs, cycles)
	m["aero.analysis.errors"] = float64(acc.obs.counter("aero.analysis.errors"))
	schedulerLayers(m, acc.obs, ph.busy())
	if rc.tr == nil {
		return
	}

	all := rc.tr.snapshot()
	var spans []span
	cycleOf := make(map[int][]span) // cycle index → analysis spans inside it
	for i, cyc := range acc.cycles {
		for _, s := range all {
			s.Start, s.End = max(s.Start, cyc.start), min(s.End, cyc.end)
			if s.End <= s.Start {
				continue
			}
			spans = append(spans, s)
			if s.Layer == "aero.analysis" {
				cycleOf[i] = append(cycleOf[i], s)
			}
		}
	}
	self := selfTimes(spans, rtLayers)
	for layer, metric := range map[string]string{
		"aero.client":           "aero.client.self_pct",
		"aero.ingest.poll":      "aero.ingest.poll.self_pct",
		"aero.ingest.transform": "aero.ingest.transform.self_pct",
		"aero.ingest.store":     "aero.ingest.store.self_pct",
		"aero.analysis":         "aero.analysis.self_pct",
		"sched.job":             "sched.job.self_pct",
	} {
		m[metric] = pct(float64(self[layer]), wall)
	}
	client := spansOf(spans, "aero.client")
	var clientNS float64
	for _, d := range durations(client) {
		clientNS += float64(d)
	}
	m["aero.client.calls_per_op"] = ratio(float64(len(client)), cycles)
	server := acc.obs.hist("aero.http.request_seconds")
	m["aero.wire.pct_of_rtt"] = wireShare(clientNS/1e9, server.sum)
	m["aero.watch.deliver_pct"] = pct(float64(acc.deliver), wall)

	var slowest, aggregate, plants []float64
	for i := range acc.cycles {
		worst := 0.0
		for _, s := range cycleOf[i] {
			d := float64(s.End-s.Start) / 1e6
			if s.Detail == "rt-aggregate" {
				aggregate = append(aggregate, d)
				continue
			}
			plants = append(plants, d)
			worst = math.Max(worst, d)
		}
		slowest = append(slowest, worst)
	}
	m["aero.analysis.slowest_plant_pct"] = pct(sum(slowest)*1e6, wall)
	m["aero.analysis.aggregate_pct"] = pct(sum(aggregate)*1e6, wall)

	byOp := map[string][]float64{}
	for _, s := range client {
		byOp[s.Detail] = append(byOp[s.Detail], float64(s.End-s.Start)/1e6)
	}
	for _, op := range []string{"GetData", "AppendVersion", "AddProvenance", "RecordRun"} {
		ph.table = append(ph.table, fmt.Sprintf("aero.client.%-14s %6.1f calls/cycle  p50 %8.3f ms", op, ratio(float64(len(byOp[op])), cycles), quantile(byOp[op], 0.5)))
	}
	for _, layer := range []string{"aero.ingest.poll", "aero.ingest.transform", "aero.ingest.store", "sched.job"} {
		ph.table = append(ph.table, fmt.Sprintf("%-26s p50 %8.3f ms", layer, quantile(durationsMS(durations(spansOf(spans, layer))), 0.5)))
	}
	ph.table = append(ph.table,
		fmt.Sprintf("aero.analysis plant        p50 %8.3f ms, slowest plant per cycle p50 %8.3f ms", quantile(plants, 0.5), quantile(slowest, 0.5)),
		fmt.Sprintf("aero.analysis aggregate    p50 %8.3f ms", quantile(aggregate, 0.5)),
		fmt.Sprintf("aero.server.request        p50 %8.3f ms", 1e3*server.quantile(0.5)),
		fmt.Sprintf("aero.watch.trigger         p50 %8.3f ms", 1e3*acc.obs.hist("aero.watch.trigger_seconds").quantile(0.5)),
		fmt.Sprintf("aero.watch.deliver         p50 %8.3f ms", quantile(durationsMS(durations(spansOf(spans, "aero.watch.deliver"))), 0.5)),
		fmt.Sprintf("scheduler.wait / run       p50 %8.3f / %8.3f ms",
			1e3*acc.obs.hist("sched.job.wait_seconds").quantile(0.5), 1e3*acc.obs.hist("sched.job.run_seconds").quantile(0.5)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timedMeta is the aero.Metadata timing decorator of traced runs: a span
// per metadata call, detailed with the method name.
type timedMeta struct {
	aero.Metadata
	tr *tracer
}

func (m timedMeta) done(op string, start time.Time) {
	m.tr.recordAt("aero.client", start, time.Now(), op)
}

func (m timedMeta) CreateData(name, sourceURL string) (*aero.DataRecord, error) {
	defer m.done("CreateData", time.Now())
	return m.Metadata.CreateData(name, sourceURL)
}

func (m timedMeta) GetData(uuid string) (*aero.DataRecord, error) {
	defer m.done("GetData", time.Now())
	return m.Metadata.GetData(uuid)
}

func (m timedMeta) AppendVersion(uuid string, v aero.Version) (*aero.DataRecord, error) {
	defer m.done("AppendVersion", time.Now())
	return m.Metadata.AppendVersion(uuid, v)
}

func (m timedMeta) ListData() ([]*aero.DataRecord, error) {
	defer m.done("ListData", time.Now())
	return m.Metadata.ListData()
}

func (m timedMeta) CreateFlow(rec aero.FlowRecord) (*aero.FlowRecord, error) {
	defer m.done("CreateFlow", time.Now())
	return m.Metadata.CreateFlow(rec)
}

func (m timedMeta) GetFlow(id string) (*aero.FlowRecord, error) {
	defer m.done("GetFlow", time.Now())
	return m.Metadata.GetFlow(id)
}

func (m timedMeta) ListFlows() ([]*aero.FlowRecord, error) {
	defer m.done("ListFlows", time.Now())
	return m.Metadata.ListFlows()
}

func (m timedMeta) RecordRun(flowID string, at time.Time) error {
	defer m.done("RecordRun", time.Now())
	return m.Metadata.RecordRun(flowID, at)
}

func (m timedMeta) AddProvenance(edge aero.ProvenanceEdge) error {
	defer m.done("AddProvenance", time.Now())
	return m.Metadata.AddProvenance(edge)
}

func (m timedMeta) Provenance(uuid string) ([]aero.ProvenanceEdge, error) {
	defer m.done("Provenance", time.Now())
	return m.Metadata.Provenance(uuid)
}

// sseWatch is the campaign's SSE subscriber on the ensemble identity, on
// a connection of its own.
type sseWatch struct {
	cancel    context.CancelFunc
	transport *http.Transport
	frames    chan sseFrame
	done      chan struct{}
	err       error // set before done closes
}

type sseFrame struct {
	Version int       `json:"version"`
	Time    time.Time `json:"time"`
	recv    time.Time
}

// rtFrameTimeout bounds the wait for one cycle's ensemble frame. PollAll
// returns once the analyses are idle, so the frame is due within
// milliseconds; a cycle that publishes no ensemble fails after this.
const rtFrameTimeout = 5 * time.Second

func dialWatch(base, uuid string) (*sseWatch, error) {
	ctx, cancel := context.WithCancel(context.Background())
	// A short keep-alive makes the server notice the disconnect, and end
	// the request, within 100 ms of the campaign closing the stream.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch?timeout=100ms&uuid="+url.QueryEscape(uuid), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	w := &sseWatch{
		cancel: cancel, transport: &http.Transport{},
		// One frame per cycle is read before the next cycle starts; the
		// buffer only has to absorb frames that arrive before PollAll
		// returns.
		frames: make(chan sseFrame, 16),
		done:   make(chan struct{}),
	}
	resp, err := (&http.Client{Transport: w.transport}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: HTTP %d", resp.StatusCode)
	}
	ready := make(chan struct{})
	go w.read(ctx, resp, ready)
	select {
	case <-ready:
		return w, nil
	case <-w.done:
		cancel()
		return nil, fmt.Errorf("watch: stream ended before ready: %v", w.err)
	case <-time.After(10 * time.Second):
		w.close()
		return nil, errors.New("watch: no ready frame")
	}
}

func (w *sseWatch) read(ctx context.Context, resp *http.Response, ready chan struct{}) {
	defer close(w.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "ready":
			close(ready)
		case strings.HasPrefix(line, "data: ") && event == "update":
			f := sseFrame{recv: time.Now()}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				w.err = err
				return
			}
			select {
			case w.frames <- f:
			case <-ctx.Done():
				return
			}
		}
	}
	w.err = sc.Err()
}

// next waits for the next update frame.
func (w *sseWatch) next() (sseFrame, error) {
	select {
	case f := <-w.frames:
		return f, nil
	case <-w.done:
		return sseFrame{}, fmt.Errorf("watch stream ended: %v", w.err)
	case <-time.After(rtFrameTimeout):
		return sseFrame{}, fmt.Errorf("no ensemble frame within %v: %w", rtFrameTimeout, errTimeout)
	}
}

func (w *sseWatch) close() {
	w.cancel()
	<-w.done
	w.transport.CloseIdleConnections()
}
