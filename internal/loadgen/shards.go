package loadgen

// The harness's task substrate: a group of Config.Shards members (one by
// default). Per member a WAL-backed task DB carrying its shard identity,
// a TCP server, a chaos proxy in front of it (the stable name clients
// dial across reboots and failover) and, in a group of two or more, a
// warm follower replicating the primary's WAL into a standby directory.
// A one-member group is the single daemon stack: the crash faults reboot
// it in place. In a larger group the shard-failover fault kills a
// primary mid-run and promotes its follower. Drivers, workers and
// invariants see every group size through one routed client.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"osprey/internal/chaos"
	"osprey/internal/emews"
	"osprey/internal/wal"
)

// shardState is one member of the task substrate. The proxy and the
// directories are fixed for the run; the member behind the proxy (db,
// log, server, follower) is swapped under harness.mu by crash and
// failover.
type shardState struct {
	idx         int
	dirPrimary  string
	dirFollower string
	proxy       *chaos.Proxy

	// Mutable under harness.mu.
	dir        string // current authoritative log directory (audited at teardown)
	db         *emews.DB
	log        *wal.Log
	srv        *emews.Server
	follower   *emews.Follower
	reapStop   context.CancelFunc
	failedOver bool
}

// bootMember (re)starts member i from its primary log directory: WAL
// recovery, a server carrying the member's shard identity, the lease
// reaper, the member's chaos proxy (created on first boot, repointed on
// a reboot) and, in a group of two or more, a warm follower. Listen ports
// are ephemeral on every boot; clients re-resolve through the proxy.
func (h *harness) bootMember(i int) error {
	s, n := h.shards[i], len(h.shards)
	l, err := wal.Open(s.dirPrimary, wal.Options{Name: fmt.Sprintf("wal.loadgen.shard%d", i), Logf: h.cfg.Logf})
	if err != nil {
		return fmt.Errorf("loadgen: open shard %d WAL: %w", i, err)
	}
	db, err := emews.OpenDBShard(l, i, n)
	if err != nil {
		l.Close()
		return fmt.Errorf("loadgen: recover shard %d: %w", i, err)
	}
	if err := h.serve(s, db, l); err != nil {
		return err
	}
	if n < 2 {
		return nil
	}
	// The follower tails the primary server directly, not through the
	// proxy: replication is daemon-to-daemon traffic on the cluster
	// fabric, while the chaos faults model the worker-facing network.
	s.follower, err = emews.StartFollower(s.srv.Addr(), s.dirFollower, emews.FollowerOptions{
		ShardIndex: i,
		ShardCount: n,
		WAL:        wal.Options{Name: fmt.Sprintf("wal.loadgen.shard%d.replica", i), Logf: h.cfg.Logf},
	})
	if err != nil {
		return fmt.Errorf("loadgen: shard %d follower: %w", i, err)
	}
	return nil
}

// serve puts db, recovered from l, behind member s's server, lease reaper
// and chaos proxy: the first boot creates the proxy, every later boot
// (crash reboot, failover promotion) repoints it.
func (h *harness) serve(s *shardState, db *emews.DB, l *wal.Log) error {
	db.SetLeaseTimeout(5 * time.Second)
	srv, err := emews.Serve(db, "127.0.0.1:0",
		emews.WithShardIdentity(s.idx, len(h.shards)), emews.WithReplicationSource(l))
	if err != nil {
		l.Close()
		return fmt.Errorf("loadgen: shard %d server: %w", s.idx, err)
	}
	reapCtx, reapStop := context.WithCancel(context.Background())
	db.StartReaper(reapCtx, 500*time.Millisecond)

	h.mu.Lock()
	s.db, s.log, s.srv, s.reapStop = db, l, srv, reapStop
	h.mu.Unlock()
	if s.proxy != nil {
		s.proxy.SetBackend(srv.Addr())
		return nil
	}
	if s.proxy, err = chaos.NewProxy(srv.Addr()); err != nil {
		return fmt.Errorf("loadgen: shard %d proxy: %w", s.idx, err)
	}
	return nil
}

// shardDir names shard i's primary log directory under the tasks root.
func shardDir(base string, i int) string {
	return fmt.Sprintf("%s/shard-%02d", base, i)
}

// failover kills shard i's primary mid-run and promotes its follower. The
// death model matches the crash fault: the WAL handle drops first — so
// nothing that happens during teardown reaches the durable log — then the
// listener. The promotion sequence is the one replica.go documents: stop
// the tail, catch up from the dead primary's log directory (zero
// acknowledged-record loss on a shared filesystem), promote (the
// epoch-bumping requeue that fences straggler claims), serve the promoted
// DB on a fresh port, and repoint the shard's proxy at it. Clients notice
// only killed connections and redial through the proxy's stable address.
func (h *harness) failover(i int) error {
	if i < 0 || i >= len(h.shards) {
		return fmt.Errorf("loadgen: shard-failover: shard %d out of range for %d shards", i, len(h.shards))
	}
	s := h.shards[i]
	h.mu.Lock()
	if s.failedOver {
		h.mu.Unlock()
		return fmt.Errorf("loadgen: shard-failover: shard %d already failed over", i)
	}
	log, srv, fol, reapStop := s.log, s.srv, s.follower, s.reapStop
	h.mu.Unlock()

	reapStop()
	log.Close()
	srv.Close()
	fol.Stop()
	if err := fol.CatchUp(s.dirPrimary); err != nil {
		return err
	}
	db, nlog, err := fol.Promote()
	if err != nil {
		return err
	}
	if err := h.serve(s, db, nlog); err != nil {
		return err
	}

	h.mu.Lock()
	s.follower = nil
	s.dir = s.dirFollower
	s.failedOver = true
	h.mu.Unlock()
	s.proxy.KillActive()

	h.faultMu.Lock()
	h.failovers++
	h.faultMu.Unlock()
	h.cfg.Logf("loadgen: shard %d failed over to its promoted follower", i)
	return nil
}

// closeShards tears the group down in dependency order — reapers, then
// servers, then unpromoted followers and proxies, then logs — returning
// the first log-close error. Safe on a partially booted group.
func (h *harness) closeShards() error {
	var firstErr error
	for _, s := range h.shards {
		if s.reapStop != nil {
			s.reapStop()
		}
		if s.srv != nil {
			s.srv.Close()
		}
		if s.follower != nil {
			s.follower.Close()
		}
		if s.proxy != nil {
			s.proxy.Close()
		}
		if s.log != nil {
			if err := s.log.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// auditDirs returns each shard's current authoritative log directory —
// the promoted follower's for a failed-over shard — indexed by shard, as
// emews.AuditShards expects.
func (h *harness) auditDirs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.dir
	}
	return out
}

// proxies returns every member's chaos proxy, so the network faults
// (kill, refuse, latency) hit the whole fabric.
func (h *harness) proxies() []*chaos.Proxy {
	out := make([]*chaos.Proxy, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.proxy
	}
	return out
}

// dial connects a routing client to the group through the members'
// proxies — the stable names that survive reboots and failover. Pool
// workers and the ME-side submit driver both use it.
func (h *harness) dial() (*emews.Client, error) {
	addrs := make([]string, len(h.shards))
	for i, s := range h.shards {
		addrs[i] = s.proxy.Addr()
	}
	return emews.DialShardGroup(addrs,
		emews.WithOpTimeout(3*time.Second),
		emews.WithBackoff(5*time.Millisecond, 100*time.Millisecond),
		emews.WithRetries(2))
}

// proxyStats sums fault counters across the members' proxies.
func (h *harness) proxyStats() chaos.ProxyStats {
	var sum chaos.ProxyStats
	for _, p := range h.proxies() {
		st := p.Stats()
		sum.Accepted += st.Accepted
		sum.Refused += st.Refused
		sum.Killed += st.Killed
	}
	return sum
}

// dbs returns every member's current DB.
func (h *harness) dbs() []*emews.DB {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*emews.DB, len(h.shards))
	for i, s := range h.shards {
		out[i] = s.db
	}
	return out
}

// dumpAll merges every member's task dump, sorted by ID. Strided ID
// allocation keeps the ID space disjoint across shards, so the merge is
// the same per-task ledger a single member would hold.
func (h *harness) dumpAll() []emews.Task {
	var out []emews.Task
	for _, db := range h.dbs() {
		out = append(out, db.Dump()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// statsAll sums occupancy counters across the members.
func (h *harness) statsAll() emews.Stats {
	var sum emews.Stats
	for _, db := range h.dbs() {
		st := db.Stats()
		sum.Queued += st.Queued
		sum.Running += st.Running
		sum.Complete += st.Complete
		sum.Failed += st.Failed
		sum.Canceled += st.Canceled
		sum.Submitted += st.Submitted
	}
	return sum
}
