package emews

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/wal"
)

// The canonical ring must be deterministic across independent builds and
// spread a realistic keyspace across every shard.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := NewRing(3), NewRing(3)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("param-set-%d", i)
		sa, sb := a.Lookup(key), b.Lookup(key)
		if sa != sb {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, sa, sb)
		}
		counts[sa]++
	}
	for s, c := range counts {
		if c < 500 {
			t.Fatalf("shard %d got %d/3000 keys — ring badly imbalanced: %v", s, c, counts)
		}
	}
	if NewRing(1).Lookup("anything") != 0 {
		t.Fatal("single-shard ring must map everything to shard 0")
	}
}

// The ring hash is a cross-version contract: clients and servers of
// different builds must route every key alike. ringHash must equal
// hash/fnv's fnv-1a plus the finalizer, and NewRing(3) must route 100
// fixed keys as the table captured from the original hash/fnv build.
func TestRingHashPinned(t *testing.T) {
	ref := func(key string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(key))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for _, key := range []string{"", "params-000", strings.Repeat("abcdefgh", 512), "Größe-ß-é-日本語-\x00\xff"} {
		if got, want := ringHash(key), ref(key); got != want {
			t.Errorf("ringHash(%.20q) = %#x, want %#x", key, got, want)
		}
	}
	if got := ringHash("params-000"); got != 0xef73e0cd67eec341 {
		t.Errorf("ringHash(\"params-000\") = %#x, want 0xef73e0cd67eec341", got)
	}
	const want = "1212122221102200020201010210021022000120211220111110211111020102011112211001012101121201011112001211"
	r := NewRing(3)
	var got strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprint(&got, r.Lookup(fmt.Sprintf("params-%03d", i)))
	}
	if got.String() != want {
		t.Fatalf("NewRing(3) routes params-000…099 as\n%s\nwant\n%s", got.String(), want)
	}
}

// Strided ID allocation: shard i of n assigns i+1, i+1+n, i+1+2n, … and
// ShardOfTask inverts it.
func TestShardStridedIDs(t *testing.T) {
	const n = 3
	for i := 0; i < n; i++ {
		db, err := NewDBShard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			f, err := db.Submit("sim", 0, "p")
			if err != nil {
				t.Fatal(err)
			}
			want := int64(i+1) + int64(k*n)
			if f.TaskID != want {
				t.Fatalf("shard %d submit %d: ID %d, want %d", i, k, f.TaskID, want)
			}
			if got := ShardOfTask(f.TaskID, n); got != i {
				t.Fatalf("ShardOfTask(%d, %d) = %d, want %d", f.TaskID, n, got, i)
			}
		}
	}
	if _, err := NewDBShard(3, 3); err == nil {
		t.Fatal("out-of-range shard index must be rejected")
	}
}

// End-to-end over a served 3-shard group: keyed submits land on their
// ring owners, the fan-out pop drains everything, resolutions route by
// ID stride, and the post-run multi-shard audit is clean.
func TestShardGroupEndToEnd(t *testing.T) {
	base := t.TempDir()
	g, err := OpenShardGroup(base, 3, nil, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := DialShardGroup(g.Addrs(), WithOpTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	const total = 60
	payloads := make([]string, total)
	for i := range payloads {
		payloads[i] = fmt.Sprintf("params-%03d", i)
	}
	ids, err := sc.SubmitBatch("sim", 0, payloads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != total {
		t.Fatalf("got %d ids for %d payloads", len(ids), total)
	}
	ring := NewRing(3)
	perShard := make([]int, 3)
	for i, id := range ids {
		if id == 0 {
			t.Fatalf("payload %d got no ID", i)
		}
		want := ring.Lookup(payloads[i])
		if got := ShardOfTask(id, 3); got != want {
			t.Fatalf("payload %q landed on shard %d, ring says %d", payloads[i], got, want)
		}
		perShard[ShardOfTask(id, 3)]++
	}
	for s, c := range perShard {
		if c == 0 {
			t.Fatalf("shard %d received no tasks: %v", s, perShard)
		}
	}

	seen := map[int64]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < total {
		if time.Now().After(deadline) {
			t.Fatalf("drained only %d/%d tasks", len(seen), total)
		}
		tasks, err := sc.PopBatch("sim", 8, 250*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var fins []FinishOp
		for _, task := range tasks {
			if seen[task.ID] {
				t.Fatalf("task %d delivered twice", task.ID)
			}
			seen[task.ID] = true
			fins = append(fins, FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: "ok:" + task.Payload})
		}
		errs, err := sc.FinishBatch(fins)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("finish %d: %v", fins[i].TaskID, e)
			}
		}
	}

	// Every result is fetchable through ID routing.
	for i, id := range ids {
		res, done, err := sc.Result(id)
		if err != nil || !done {
			t.Fatalf("result %d: done=%v err=%v", id, done, err)
		}
		if want := "ok:" + payloads[i]; res != want {
			t.Fatalf("result %d: %q, want %q", id, res, want)
		}
	}
	sum, err := sc.RemoteStats()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Complete != total || sum.Submitted != total {
		t.Fatalf("aggregate stats: %+v", sum)
	}
	sc.Close()
	g.Close()

	dirs := []string{g.Dir(0), g.Dir(1), g.Dir(2)}
	audit, err := AuditShards(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Ok() {
		t.Fatalf("shard audit violations: %v", audit.Combined.Violations)
	}
	var submits int
	for _, a := range audit.Shards {
		submits += a.Submits
	}
	if submits != total || audit.Combined.Submits != total {
		t.Fatalf("per-shard submit ledgers sum to %d (combined %d), want %d",
			submits, audit.Combined.Submits, total)
	}
}

// A member connection talking to the wrong member of a shard group gets a
// wrong_shard redirect naming the owner, and the op is not applied.
func TestWrongShardRedirect(t *testing.T) {
	base := t.TempDir()
	g, err := OpenShardGroup(base, 3, nil, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ring := NewRing(3)
	key := "k"
	for i := 0; ring.Lookup(key) == 0 && i < 1000; i++ {
		key = fmt.Sprintf("k-%d", i)
	}
	owner := ring.Lookup(key)
	if owner == 0 {
		t.Fatal("could not find a key owned by a nonzero shard")
	}

	cl, err := dialConn(g.Addrs()[0], newClientConfig(WithOpTimeout(2*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()

	_, err = cl.submitBatch("sim", 0, []string{"payload"}, key, 1)
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("misrouted keyed submit: err=%v, want WrongShardError", err)
	}
	if ws.Shard != owner {
		t.Fatalf("redirect names shard %d, ring owner is %d", ws.Shard, owner)
	}
	if st := g.DB(0).Stats(); st.Submitted != 0 {
		t.Fatalf("redirected submit was applied: %+v", st)
	}

	// Task-addressed ops redirect by ID stride: task 2 strides to shard 1.
	if errs, err := cl.finishBatch([]FinishOp{{TaskID: 2, Epoch: 1, Result: "r"}}); err != nil || !errors.As(errs[0], &ws) || ws.Shard != 1 {
		t.Fatalf("misrouted complete: errs=%v err=%v", errs, err)
	}

	// An unkeyed submit (legacy client) is accepted anywhere.
	if _, err := cl.submitBatch("sim", 0, []string{"legacy"}, "", 1); err != nil {
		t.Fatalf("unkeyed submit refused: %v", err)
	}

	// The routing client follows redirects even when its address order
	// disagrees with the servers' identities.
	addrs := g.Addrs()
	shuffled := []string{addrs[1], addrs[2], addrs[0]}
	sc, err := DialShardGroup(shuffled, WithOpTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SubmitRetry("sim", 0, "some-params", 1); err != nil {
		t.Fatalf("redirect-following submit failed: %v", err)
	}
}

// One error contract at every group size. With one member of a 2-shard
// group down, PopBatch keeps waiting on the live member and FinishBatch
// reports the dead member's exchange error in that member's slots only.
// With every member down, an unbounded PopBatch returns the transport
// error instead of waiting until Close, and FinishBatch fails the whole
// call: no op's outcome is known.
func TestShardGroupErrorContract(t *testing.T) {
	var dbs []*DB
	var srvs []*Server
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := NewDBShard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, err := Serve(db, "127.0.0.1:0", WithShardIdentity(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dbs, srvs, addrs = append(dbs, db), append(srvs, srv), append(addrs, srv.Addr())
	}
	sc, err := DialShardGroup(addrs, WithOpTimeout(2*time.Second), WithRetries(1), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// One claim per member, so each finish_batch leg carries a real op.
	for _, db := range dbs {
		if _, err := db.Submit("sim", 0, "p"); err != nil {
			t.Fatal(err)
		}
	}
	var claims []RemoteTask
	for len(claims) < 2 {
		tasks, err := sc.PopBatch("sim", 2, 2*time.Second)
		if err != nil || len(tasks) == 0 {
			t.Fatalf("pop with every member up = %v, %v", tasks, err)
		}
		claims = append(claims, tasks...)
	}
	sort.Slice(claims, func(i, j int) bool { return claims[i].ID < claims[j].ID }) // IDs 1, 2: shards 0, 1
	srvs[1].Close()

	fins := []FinishOp{
		{TaskID: claims[0].ID, Epoch: claims[0].Epoch, Result: "r"},
		{TaskID: claims[1].ID, Epoch: claims[1].Epoch, Result: "r"},
	}
	errs, err := sc.FinishBatch(fins)
	if err != nil || errs[0] != nil || !errors.Is(errs[1], ErrTransport) {
		t.Fatalf("finish with member 1 down = %v, %v; want [nil, ErrTransport], nil", errs, err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		dbs[0].Submit("sim", 0, "late")
	}()
	if tasks, err := sc.PopBatch("sim", 1, 0); err != nil || len(tasks) != 1 || tasks[0].Payload != "late" {
		t.Fatalf("unbounded pop with member 1 down = %v, %v; want the live member's task", tasks, err)
	}

	srvs[0].Close()
	popped := make(chan error, 1)
	go func() {
		_, err := sc.PopBatch("sim", 1, 0)
		popped <- err
	}()
	select {
	case err := <-popped:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("unbounded pop with every member down = %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unbounded pop with every member down did not return")
	}
	if errs, err := sc.FinishBatch(fins); errs != nil || !errors.Is(err, ErrTransport) {
		t.Fatalf("finish with every member down = %v, %v; want nil, ErrTransport", errs, err)
	}

	// Repointing a member at its replacement (in a failover, the promoted
	// follower) brings it back.
	srv, err := Serve(dbs[0], "127.0.0.1:0", WithShardIdentity(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := sc.SetShardAddr(2, srv.Addr()); err == nil {
		t.Fatal("out-of-range shard repointed")
	}
	if err := sc.SetShardAddr(0, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if res, done, err := sc.Result(claims[0].ID); err != nil || !done || res != "r" {
		t.Fatalf("result from the repointed member = %q, %v, %v", res, done, err)
	}
}

// Several goroutines popping one task type through one group client
// share its fan-out: every task is delivered exactly once, and each
// caller wakes on deliveries another caller's pops brought in.
func TestShardGroupConcurrentPops(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := NewDBShard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, err := Serve(db, "127.0.0.1:0", WithShardIdentity(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	sc, err := DialShardGroup(addrs, WithOpTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const total = 200
	payloads := make([]string, total)
	for i := range payloads {
		payloads[i] = fmt.Sprintf("params-%03d", i)
	}
	if _, err := sc.SubmitBatch("sim", 0, payloads, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int64]int{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				mu.Lock()
				drained := len(seen) == total
				mu.Unlock()
				if drained {
					return
				}
				tasks, err := sc.PopBatch("sim", 4, 50*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				var fins []FinishOp
				mu.Lock()
				for _, task := range tasks {
					seen[task.ID]++
					fins = append(fins, FinishOp{TaskID: task.ID, Epoch: task.Epoch, Result: "ok"})
				}
				mu.Unlock()
				if _, err := sc.FinishBatch(fins); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("drained %d/%d tasks", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d delivered %d times", id, n)
		}
	}
	if st, err := sc.RemoteStats(); err != nil || st.Complete != total {
		t.Fatalf("stats = %+v, %v; want %d complete", st, err, total)
	}
}

// dumpBytes is the byte-level equivalence probe for replica tests. It
// quotes strings byte for byte (JSON would fold invalid UTF-8 into
// U+FFFD) and drops only the monotonic clock reading, which no log
// carries.
func dumpBytes(t *testing.T, tasks []Task) []byte {
	t.Helper()
	var b []byte
	for _, x := range tasks {
		x.Submitted, x.Started, x.Finished = x.Submitted.Round(0), x.Started.Round(0), x.Finished.Round(0)
		b = fmt.Appendf(b, "%#v\n", x)
	}
	return b
}

// A follower that tailed a primary's WAL must hold a byte-identical task
// table: same IDs, payloads, statuses, epochs, attempts, timestamps. Some
// payloads, results and error messages are not valid UTF-8, and must be
// copied byte for byte all the same.
func TestFollowerReplayEquivalence(t *testing.T) {
	base := t.TempDir()
	primaryDir := filepath.Join(base, "primary")
	l, err := wal.Open(primaryDir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDBShard(l, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0", WithShardIdentity(1, 3), WithReplicationSource(l))
	if err != nil {
		t.Fatal(err)
	}

	// Generate history: submits, pops, completes, a failure, a requeue.
	for i := 0; i < 20; i++ {
		if _, err := db.SubmitRetry("sim", i%3, fmt.Sprintf("p-%d\xff\xfe", i), 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		c, ok, err := db.TryPop("sim")
		if err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
		switch i % 3 {
		case 0:
			err = c.Complete("done\x80")
		case 1:
			err = c.Fail("transient\xc3\x28") // has budget: requeues
		default:
			err = c.Complete("fine")
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(srv.Addr(), filepath.Join(base, "follower"), FollowerOptions{
		ShardIndex: 1, ShardCount: 3,
		PollInterval: 5 * time.Millisecond,
		WAL:          wal.Options{Name: "wal.test"},
		ClientOpts:   []ClientOption{WithOpTimeout(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// More traffic while the tail is live.
	for i := 20; i < 30; i++ {
		if _, err := db.Submit("sim", 0, fmt.Sprintf("p-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	want := dumpBytes(t, db.Dump())
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := dumpBytes(t, f.dump())
		if string(got) == string(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged:\n got %s\nwant %s", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := f.Status()
	if st.Records == 0 || st.Promoted {
		t.Fatalf("unexpected follower status: %+v", st)
	}
	srv.Close()
	db.Close()
	l.Close()
}

// Bootstrap from a compacted primary: the snapshot seeds the replica and
// post-snapshot records flow through the tail.
func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	base := t.TempDir()
	primaryDir := filepath.Join(base, "primary")
	l, err := wal.Open(primaryDir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDBShard(l, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Submit("sim", 0, fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Submit("sim", 0, fmt.Sprintf("post-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(db, "127.0.0.1:0", WithReplicationSource(l))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f, err := StartFollower(srv.Addr(), filepath.Join(base, "follower"), FollowerOptions{
		PollInterval: 5 * time.Millisecond,
		WAL:          wal.Options{Name: "wal.test"},
		ClientOpts:   []ClientOption{WithOpTimeout(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := dumpBytes(t, db.Dump())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if string(dumpBytes(t, f.dump())) == string(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never converged after snapshot bootstrap")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Full failover: primary dies with claims outstanding and records the
// follower has not shipped yet; CatchUp drains them from the dead
// primary's directory, Promote requeues the orphaned Running tasks with
// an epoch bump, and the old claim is fenced off with ErrStaleClaim on
// the promoted server.
func TestFailoverPreservesEpochFencing(t *testing.T) {
	base := t.TempDir()
	primaryDir := filepath.Join(base, "primary")
	l, err := wal.Open(primaryDir, wal.Options{Name: "wal.test"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDBShard(l, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0", WithReplicationSource(l))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.SubmitRetry("sim", 0, fmt.Sprintf("p-%d", i), 3); err != nil {
			t.Fatal(err)
		}
	}

	f, err := StartFollower(srv.Addr(), filepath.Join(base, "follower"), FollowerOptions{
		PollInterval: 5 * time.Millisecond,
		WAL:          wal.Options{Name: "wal.test"},
		ClientOpts:   []ClientOption{WithOpTimeout(time.Second), WithRetries(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the tail before the final mutations so CatchUp has real work.
	f.Stop()

	// A worker claims a task directly on the primary...
	claim, ok, err := db.TryPop("sim")
	if err != nil || !ok {
		t.Fatalf("pop: ok=%v err=%v", ok, err)
	}
	oldEpoch := claim.Task.Epoch
	// ...and the primary commits one more submit the follower never saw.
	if _, err := db.Submit("sim", 5, "late-arrival"); err != nil {
		t.Fatal(err)
	}

	// Primary dies: server down, log closed (flushed), DB abandoned.
	srv.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if err := f.CatchUp(primaryDir); err != nil {
		t.Fatal(err)
	}
	newDB, newLog, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	newSrv, err := Serve(newDB, "127.0.0.1:0", WithReplicationSource(newLog))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		newSrv.Close()
		newDB.Close()
		newLog.Close()
	}()

	// The late submit survived failover (no acknowledged record lost).
	found := false
	for _, task := range newDB.Dump() {
		if task.Payload == "late-arrival" {
			found = true
		}
	}
	if !found {
		t.Fatal("record committed after the last ship was lost in failover")
	}

	// The old claim's resolution must be fenced off on the new primary.
	cl, err := Dial(newSrv.Addr(), WithOpTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Complete(claim.Task.ID, oldEpoch, "stale result")
	if !errors.Is(err, ErrStaleClaim) {
		t.Fatalf("stale pre-failover claim: err=%v, want ErrStaleClaim", err)
	}

	// The task itself was requeued with a bumped epoch and is poppable.
	task, err := newDB.Get(claim.Task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if task.Status != StatusQueued || task.Epoch <= oldEpoch {
		t.Fatalf("requeued task: status=%v epoch=%d (old %d)", task.Status, task.Epoch, oldEpoch)
	}
	got, ok, err := cl.Pop("sim", time.Second)
	if err != nil || !ok {
		t.Fatalf("pop after failover: ok=%v err=%v", ok, err)
	}
	if err := cl.Complete(got.ID, got.Epoch, "fresh"); err != nil {
		t.Fatalf("fresh claim refused: %v", err)
	}

	// Promote is one-shot.
	if _, _, err := f.Promote(); err == nil {
		t.Fatal("second Promote must fail")
	}
}
