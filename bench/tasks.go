package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/emews"
	"osprey/internal/obs"
	"osprey/internal/wal"
)

// Task-substrate workloads. One submitter keeps tasksOutstanding tasks in
// flight with SubmitBatch(tasksBatch); one worker runs PopBatch(tasksBatch)
// and FinishBatch, echoing each payload as its result. Both are goroutines
// of this process; an op is one task, timed from its SubmitBatch call to
// the FinishBatch reply that resolves it.
const (
	tasksType        = "bench"
	tasksBatch       = 16
	tasksOutstanding = 256
	tasksPayloadMin  = 64
	tasksPayloadMax  = 4096
	tasksBodies      = 8192 // distinct payload bodies generated from the seed
	tasksSentRing    = 4096 // > tasksOutstanding, so a slot is free when reused
	tasksSampleEvery = 97   // every 97th task's stored result is verified
	tasksPruneEvery  = 250 * time.Millisecond
)

func tasksParams(quick bool) map[string]any {
	warm, reps := tasksWarmup(quick)
	return map[string]any{
		"batch": tasksBatch, "outstanding": tasksOutstanding,
		"payload_bytes": fmt.Sprintf("log-uniform %d..%d", tasksPayloadMin, tasksPayloadMax),
		"warmup_s":      warm.Seconds(), "setup_reps": reps,
		"fsync": "always (tasks-durable)", "shards": "2 (tasks-memory)",
	}
}

func tasksWarmup(quick bool) (time.Duration, int) {
	if quick {
		return 100 * time.Millisecond, 2
	}
	return time.Second, 20
}

// taskClient is the slice of the EMEWS client API the loop drives; both
// *emews.Client and *emews.ShardedClient implement it.
type taskClient interface {
	SubmitBatch(taskType string, priority int, payloads []string, maxAttempts int) ([]int64, error)
	PopBatch(taskType string, max int, timeout time.Duration) ([]emews.RemoteTask, error)
	FinishBatch(ops []emews.FinishOp) ([]error, error)
}

// taskRig is one running substrate topology.
type taskRig struct {
	submit, work taskClient  // one connection each; one shared client on tasks-memory
	dbs          []*emews.DB // in-process databases, indexed by shard
	follower     *emews.Follower
	primaryWAL   string // obs name of the primary's WAL; "" without one
	walStart     int64  // the primary WAL's appends counter when it opened
	closers      []func()
}

func (r *taskRig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// dbFor returns the in-process database owning task id.
func (r *taskRig) dbFor(id int64) *emews.DB {
	return r.dbs[emews.ShardOfTask(id, len(r.dbs))]
}

// openDurable is the daemon's topology: a WAL-backed primary (fsync
// always) serving replication, one follower with its own WAL, and separate
// submitter and worker connections.
func openDurable(dir string) (*taskRig, error) {
	rig := &taskRig{primaryWAL: "wal.emews"}
	l, err := wal.Open(filepath.Join(dir, "primary"), wal.Options{Name: "wal.emews", Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	// The follower replicates every record from here on; the counter is
	// process-wide, so remember where this log's records start.
	rig.walStart = obs.GetCounter("wal.emews.appends").Value()
	rig.closers = append(rig.closers, func() { l.Close() })
	db, err := emews.OpenDB(l)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.dbs = []*emews.DB{db}
	rig.closers = append(rig.closers, db.Close)
	srv, err := emews.Serve(db, "127.0.0.1:0", emews.WithReplicationSource(l))
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.closers = append(rig.closers, srv.Close)
	fol, err := emews.StartFollower(srv.Addr(), filepath.Join(dir, "follower"),
		emews.FollowerOptions{WAL: wal.Options{Name: "wal.follower", Policy: wal.SyncAlways}})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.follower = fol
	rig.closers = append(rig.closers, fol.Close)
	for _, c := range []*taskClient{&rig.submit, &rig.work} {
		cl, err := emews.Dial(srv.Addr())
		if err != nil {
			rig.close()
			return nil, err
		}
		*c = cl
		rig.closers = append(rig.closers, func() { cl.Close() })
	}
	return rig, nil
}

// openMemory is a 2-shard in-memory group behind one routed client that
// the submitter and the worker share (one connection per shard).
func openMemory(string) (*taskRig, error) {
	const shards = 2
	rig := &taskRig{}
	var addrs []string
	for i := 0; i < shards; i++ {
		db, err := emews.NewDBShard(i, shards)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.dbs = append(rig.dbs, db)
		rig.closers = append(rig.closers, db.Close)
		srv, err := emews.Serve(db, "127.0.0.1:0", emews.WithShardIdentity(i, shards))
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.closers = append(rig.closers, srv.Close)
		addrs = append(addrs, srv.Addr())
	}
	sc, err := emews.DialShardGroup(addrs)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.closers = append(rig.closers, func() { sc.Close() })
	rig.submit, rig.work = sc, sc
	return rig, nil
}

func runTasksDurable(rc *runConfig) (*phase, error) { return runTasks(rc, openDurable) }
func runTasksMemory(rc *runConfig) (*phase, error)  { return runTasks(rc, openMemory) }

// payloadBodies draws the seed's payload bodies: lengths log-uniform in
// [tasksPayloadMin, tasksPayloadMax] including an 8-byte sequence prefix,
// lowercase ASCII so every codec carries them unchanged.
func payloadBodies(seed uint64) []string {
	rng := newRand(seed ^ 0x7461736b73)
	out := make([]string, tasksBodies)
	lo, hi := math.Log(tasksPayloadMin), math.Log(tasksPayloadMax)
	for i := range out {
		n := int(math.Exp(lo+rng.float()*(hi-lo))) - 8
		b := make([]byte, n)
		for j := range b {
			b[j] = 'a' + byte(rng.next()%26)
		}
		out[i] = string(b)
	}
	return out
}

func payloadFor(bodies []string, seq int64) string {
	return fmt.Sprintf("%08x", uint32(seq)) + bodies[seq%tasksBodies]
}

// runTasks measures one task workload: repeated set-ups for setup_s, then
// a warm-up and the measured window on the last topology set up. A set-up
// ends when the topology has served its first batch of tasks.
func runTasks(rc *runConfig, open func(dir string) (*taskRig, error)) (*phase, error) {
	ph := &phase{}
	warm, reps := tasksWarmup(rc.quick)
	bodies := payloadBodies(rc.seed)
	var rig *taskRig
	for i := 0; i <= reps; i++ {
		dir := filepath.Join(rc.scratch, fmt.Sprintf("tasks-%d", i))
		start := time.Now()
		r, err := open(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := r.firstBatch(bodies); err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: first batch: %w", err)
		}
		ph.setups = append(ph.setups, time.Since(start))
		if i < reps {
			r.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		rig = r
	}
	defer rig.close()

	lp := &taskLoop{rc: rc, rig: rig, ph: ph, bodies: bodies, wake: make(chan struct{}, 1)}
	return lp.run(warm)
}

// firstBatch submits one batch, pops it and finishes it, echoing each
// payload: the first tasks a fresh topology serves.
func (r *taskRig) firstBatch(bodies []string) error {
	payloads := make([]string, tasksBatch)
	for k := range payloads {
		payloads[k] = payloadFor(bodies, int64(k))
	}
	if _, err := r.submit.SubmitBatch(tasksType, 0, payloads, 1); err != nil {
		return err
	}
	for done := 0; done < tasksBatch; {
		tasks, err := r.work.PopBatch(tasksType, tasksBatch, 5*time.Second)
		if err != nil {
			return err
		}
		if len(tasks) == 0 {
			return fmt.Errorf("%d of %d tasks not delivered: %w", tasksBatch-done, tasksBatch, errTimeout)
		}
		ops := make([]emews.FinishOp, len(tasks))
		for i, t := range tasks {
			ops[i] = emews.FinishOp{TaskID: t.ID, Epoch: t.Epoch, Result: t.Payload}
		}
		errs, err := r.work.FinishBatch(ops)
		if err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		done += len(tasks)
	}
	return nil
}

// taskLoop is the closed loop of one task workload.
type taskLoop struct {
	rc     *runConfig
	rig    *taskRig
	ph     *phase
	bodies []string

	sent        [tasksSentRing]atomic.Int64 // submit time (UnixNano) by seq
	outstanding atomic.Int64
	wake        chan struct{} // worker → submitter: outstanding dropped
	stopWorker  atomic.Bool

	window *closedLoop // worker-owned until it exits

	mu      sync.Mutex // guards issues and failed from both goroutines
	samples []taskSample
}

type taskSample struct {
	id  int64
	seq int64
}

// fail records a failed correctness check.
func (lp *taskLoop) fail(format string, args ...any) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if len(lp.ph.issues) < 20 {
		lp.ph.fail(format, args...)
	}
}

// opFailed records n ops the system failed, and why.
func (lp *taskLoop) opFailed(n int, format string, args ...any) {
	lp.fail(format, args...)
	lp.mu.Lock()
	lp.ph.failed += n
	lp.mu.Unlock()
}

func (lp *taskLoop) run(warm time.Duration) (*phase, error) {
	rc, rig, ph := lp.rc, lp.rig, lp.ph
	start := time.Now()
	from := start.Add(warm)
	to := from.Add(time.Duration(rc.seconds * float64(time.Second)))
	lp.window = newClosedLoop(from, to, int(math.Round(rc.seconds)))

	var win obsWindow
	var completed0 []int
	var depthMax int64
	var lags []float64
	var probeMu sync.Mutex
	probe := func() {
		now := time.Now()
		if now.Before(from) || !now.Before(to) {
			return
		}
		snap := obs.Default().Snapshot()
		probeMu.Lock()
		defer probeMu.Unlock()
		depthMax = max(depthMax, snap.Gauges["emews.queue.depth"])
		if rig.follower != nil {
			appended := snap.Counters[rig.primaryWAL+".appends"] - rig.walStart
			lags = append(lags, float64(appended-rig.follower.Status().Records))
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lp.work()
	}()

	var smp *sampler
	var folRecords int64
	seq := int64(0)
	lastPrune := start
	measuring := false
	for {
		now := time.Now()
		if !measuring && !now.Before(from) {
			measuring = true
			win = openObsWindow()
			completed0 = lp.completedPerShard()
			if rig.follower != nil {
				folRecords = rig.follower.Status().Records
			}
			smp = startSampler(probe)
		}
		if !now.Before(to) {
			break
		}
		if now.Sub(lastPrune) >= tasksPruneEvery {
			lp.verifyAndPrune()
			lastPrune = now
		}
		if lp.outstanding.Load() > tasksOutstanding-tasksBatch {
			select {
			case <-lp.wake:
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		if !lp.submit(seq) {
			break
		}
		seq += tasksBatch
	}
	if smp == nil { // the loop broke before the window opened
		win = openObsWindow()
		completed0 = lp.completedPerShard()
		smp = startSampler(probe)
	}
	delta := win.close()
	smp.finish(ph)
	completed1 := lp.completedPerShard()
	if rig.follower != nil {
		folRecords = rig.follower.Status().Records - folRecords
	}

	// Drain what is still in flight, then stop the worker.
	deadline := time.Now().Add(10 * time.Second)
	for lp.outstanding.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-lp.wake:
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := lp.outstanding.Load(); n > 0 {
		lp.fail("%d tasks still outstanding 10s after the window closed", n)
	}
	lp.stopWorker.Store(true)
	wg.Wait()
	lp.verifyAndPrune()
	lp.checkLedger(seq + tasksBatch) // the set-up's first batch is in the ledger too
	if rig.follower != nil {
		lp.checkFollower()
	}

	ph.segs = lp.window.segs
	ph.attempted = ph.ops() + ph.failed
	lp.layers(delta, completed0, completed1, folRecords, depthMax, lags)
	return ph, nil
}

// submit sends tasks seq .. seq+tasksBatch-1; false stops the loop.
func (lp *taskLoop) submit(seq int64) bool {
	payloads := make([]string, tasksBatch)
	for k := range payloads {
		payloads[k] = payloadFor(lp.bodies, seq+int64(k))
	}
	start := time.Now()
	for k := range payloads {
		lp.sent[(seq+int64(k))%tasksSentRing].Store(start.UnixNano())
	}
	lp.outstanding.Add(tasksBatch)
	ids, err := lp.rig.submit.SubmitBatch(tasksType, 0, payloads, 1)
	lp.rc.tr.record("emews.client.submit", start)
	if err != nil {
		lp.outstanding.Add(-tasksBatch)
		lp.opFailed(tasksBatch, "submit_batch: %v", err)
		return false
	}
	for k, id := range ids {
		if (seq+int64(k))%tasksSampleEvery == 0 {
			lp.samples = append(lp.samples, taskSample{id: id, seq: seq + int64(k)})
		}
	}
	return true
}

// work is the worker goroutine: pop, check, echo, finish.
func (lp *taskLoop) work() {
	tr := lp.rc.tr
	for !lp.stopWorker.Load() {
		start := time.Now()
		tasks, err := lp.rig.work.PopBatch(tasksType, tasksBatch, 20*time.Millisecond)
		tr.record("emews.client.pop", start)
		if err != nil {
			lp.opFailed(0, "pop_batch: %v", err)
			return
		}
		if len(tasks) == 0 {
			continue
		}
		ops := make([]emews.FinishOp, len(tasks))
		seqs := make([]int64, len(tasks))
		for i, t := range tasks {
			seq, ok := lp.checkPayload(t.Payload)
			if !ok {
				lp.fail("task %d: payload does not match what was submitted", t.ID)
			}
			seqs[i] = seq
			ops[i] = emews.FinishOp{TaskID: t.ID, Epoch: t.Epoch, Result: t.Payload}
		}
		start = time.Now()
		errs, err := lp.rig.work.FinishBatch(ops)
		end := time.Now()
		tr.record("emews.client.finish", start)
		if err != nil {
			lp.opFailed(len(ops), "finish_batch: %v", err)
			return
		}
		for i, e := range errs {
			if e != nil {
				lp.opFailed(1, "finish task %d: %v", ops[i].TaskID, e)
				continue
			}
			lp.window.observe(time.Unix(0, lp.sent[seqs[i]%tasksSentRing].Load()), end)
		}
		lp.outstanding.Add(-int64(len(tasks)))
		select {
		case lp.wake <- struct{}{}:
		default:
		}
	}
}

// checkPayload parses the sequence prefix and compares the body with the
// one submitted.
func (lp *taskLoop) checkPayload(p string) (int64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	seq, err := strconv.ParseUint(p[:8], 16, 32)
	if err != nil {
		return 0, false
	}
	return int64(seq), p[8:] == lp.bodies[int64(seq)%tasksBodies]
}

// verifyAndPrune checks the stored result of every completed sample task,
// then drops terminal tasks so memory stays bounded, as the daemon's
// retention does. It runs on the submitter goroutine.
func (lp *taskLoop) verifyAndPrune() {
	cut := time.Now()
	kept := lp.samples[:0]
	for _, s := range lp.samples {
		t, err := lp.rig.dbFor(s.id).Get(s.id)
		if err != nil {
			lp.fail("sample task %d: %v", s.id, err)
			continue
		}
		switch t.Status {
		case emews.StatusComplete:
			if t.Result != payloadFor(lp.bodies, s.seq) {
				lp.fail("task %d: stored result differs from its payload", s.id)
			}
		case emews.StatusQueued, emews.StatusRunning:
			kept = append(kept, s)
		default:
			lp.fail("task %d ended %v", s.id, t.Status)
		}
	}
	lp.samples = kept
	// Prune only tasks finished before cut: a sample still running when it
	// was checked above finishes after cut and survives to the next check.
	for _, db := range lp.rig.dbs {
		if _, err := db.Prune(time.Since(cut) + time.Millisecond); err != nil {
			lp.fail("prune: %v", err)
		}
	}
}

func (lp *taskLoop) completedPerShard() []int {
	out := make([]int, len(lp.rig.dbs))
	for i, db := range lp.rig.dbs {
		out[i] = db.Stats().Complete
	}
	return out
}

// checkLedger asserts every submitted task completed exactly once.
func (lp *taskLoop) checkLedger(submitted int64) {
	var st emews.Stats
	for _, db := range lp.rig.dbs {
		s := db.Stats()
		st.Submitted += s.Submitted
		st.Complete += s.Complete
		st.Failed += s.Failed
		st.Queued += s.Queued
		st.Running += s.Running
	}
	if int64(st.Submitted) != submitted || int64(st.Complete) != submitted || st.Failed+st.Queued+st.Running != 0 {
		lp.fail("ledger: sent %d, database submitted %d complete %d failed %d queued %d running %d",
			submitted, st.Submitted, st.Complete, st.Failed, st.Queued, st.Running)
	}
	if len(lp.samples) != 0 {
		lp.fail("%d sampled tasks never completed", len(lp.samples))
	}
}

// checkFollower waits for the follower to apply every record the primary
// appended since it started.
func (lp *taskLoop) checkFollower() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		appended := obs.Default().Snapshot().Counters[lp.rig.primaryWAL+".appends"] - lp.rig.walStart
		st := lp.rig.follower.Status()
		if st.Records == appended && st.LastErr == "" {
			return
		}
		if time.Now().After(deadline) {
			lp.fail("follower applied %d of %d primary records (last error %q)", st.Records, appended, st.LastErr)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// layers derives the per-layer metrics of the measured window.
func (lp *taskLoop) layers(d obsDelta, completed0, completed1 []int, folRecords, depthMax int64, lags []float64) {
	ph, rc := lp.ph, lp.rc
	ops := float64(ph.ops())
	m := map[string]float64{}
	ph.layers = m
	w := float64(ph.busy())

	spans := clip(rc.tr.snapshot(), rc.tr, lp.window.from, lp.window.to)
	self := selfTimes(spans, nil)
	var clientNS float64
	calls := 0
	for _, op := range []string{"submit", "pop", "finish"} {
		layer := "emews.client." + op
		s := spansOf(spans, layer)
		calls += len(s)
		for _, d := range durations(s) {
			clientNS += float64(d)
		}
		m[layer+"_pct"] = pct(float64(self[layer]), w)
		ms := durationsMS(durations(s))
		ph.table = append(ph.table, fmt.Sprintf("%-22s calls %7d  p50 %8.3f ms  p99 %8.3f ms", layer, len(s), quantile(ms, 0.5), quantile(ms, 0.99)))
	}
	m["emews.client.calls_per_op"] = ratio(float64(calls), ops)
	m["emews.client.errors"] = float64(ph.failed)

	req := d.hist("emews.net.request_seconds")
	m["emews.net.requests_per_op"] = ratio(float64(d.counter("emews.net.requests")), ops)
	m["emews.wire.pct_of_rtt"] = wireShare(clientNS/1e9, req.sum)
	popWait := d.hist("emews.pop.wait_seconds")
	service := d.hist("emews.task.service_seconds")
	m["emews.taskdb.pop_wait_pct"] = pct(popWait.sum, popWait.sum+service.sum)
	m["emews.taskdb.queue_depth_max"] = float64(depthMax)
	ph.table = append(ph.table,
		fmt.Sprintf("emews.net.request      n %9d  p50 %8.3f ms  p99 %8.3f ms", req.count, 1e3*req.quantile(0.5), 1e3*req.quantile(0.99)),
		fmt.Sprintf("emews.taskdb.pop_wait  n %9d  p50 %8.3f ms", popWait.count, 1e3*popWait.quantile(0.5)),
		fmt.Sprintf("emews.taskdb.service   n %9d  p50 %8.3f ms", service.count, 1e3*service.quantile(0.5)),
		fmt.Sprintf("emews.wire             %8.2f us/task (client RTT - server request time)", ratio(clientNS/1e3-req.sum*1e6, ops)))

	if len(lp.rig.dbs) > 1 {
		lo, hi := math.Inf(1), 0.0
		for i := range completed0 {
			n := float64(completed1[i] - completed0[i])
			lo, hi = math.Min(lo, n), math.Max(hi, n)
		}
		m["emews.shardclient.skew"] = ratio(hi, lo)
	}
	if lp.rig.follower != nil {
		m["emews.replica.lag_records_p50"] = median(lags)
		m["emews.replica.lag_records_max"] = quantile(lags, 1)
		m["emews.replica.records_per_op"] = ratio(float64(folRecords), ops)
		walPerOp(m, "wal.follower", "wal.follower", d, ops)
	}
	if lp.rig.primaryWAL != "" {
		walPerOp(m, "wal.primary", lp.rig.primaryWAL, d, ops)
	}
}

// walPerOp reports a WAL's appends, fsyncs and KB written per op.
func walPerOp(m map[string]float64, metric, name string, d obsDelta, ops float64) {
	m[metric+".appends_per_op"] = ratio(float64(d.counter(name+".appends")), ops)
	m[metric+".fsyncs_per_op"] = ratio(float64(d.counter(name+".fsyncs")), ops)
	m[metric+".kb_per_op"] = ratio(float64(d.counter(name+".bytes"))/1024, ops)
}
