// Primary→follower replication for one shard of the task substrate.
//
// A Follower is a warm standby for a shard primary. It bootstraps over the
// existing TCP service (the wal_fetch op): first the primary's newest
// compaction snapshot plus a shipping cursor, then a tail loop that pages
// framed WAL records from that cursor forward. Every shipped chunk is
// appended to the follower's own wal.Log as one commit (durable copy
// first, exactly the primary's persist-then-apply ordering) and then
// applied through the same pure applyLocked transition function the
// primary and crash recovery use — so the follower's in-memory state and
// its on-disk log are both faithful replicas, record for record.
//
// Failover sequence (driven by a coordinator, e.g. the loadgen harness or
// the daemon supervisor):
//
//  1. The primary dies. Stop() the tail loop.
//  2. CatchUp(primaryDir) drains whatever acknowledged records the tail
//     had not shipped yet straight from the dead primary's log directory
//     (wal.ReadDirAt) — the shared-filesystem model of the HPC clusters
//     OSPREY targets, where the WAL outlives its writer. After CatchUp the
//     follower has every mutation the primary ever acknowledged.
//  3. Promote() turns the replica into a primary: its own log becomes the
//     database's WAL, every task left Running by the dead primary is
//     requeued with an epoch bump — committed through the log like any
//     other mutation — so straggler claims against the old primary resolve
//     as ErrStaleClaim, exactly as they would after a crash-restart.
//  4. The coordinator serves the returned DB (Serve + WithShardIdentity)
//     and repoints routers at the new address.
//
// The epoch bump in step 3 is what preserves attempt fencing across
// failover: a worker holding a claim from the old primary cannot overwrite
// a newer attempt on the new one.
package emews

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"osprey/internal/wal"
)

// FollowerOptions configures StartFollower.
type FollowerOptions struct {
	// ShardIndex/ShardCount are the shard identity of the primary being
	// followed (0/1 for an unsharded primary). The promoted database
	// allocates the same strided ID sequence.
	ShardIndex int
	ShardCount int
	// PollInterval paces the tail loop when it is caught up with the
	// primary. Default 25ms.
	PollInterval time.Duration
	// WAL configures the follower's own log (name, segment size, sync
	// policy). The zero value syncs every append, matching a primary that
	// must not lose acknowledged work.
	WAL wal.Options
	// ClientOpts configure the wire client used to reach the primary.
	ClientOpts []ClientOption
}

// FollowerStatus is an observability snapshot of a Follower.
type FollowerStatus struct {
	Seg      int    `json:"seg"` // shipping cursor, primary segment numbering
	Off      int64  `json:"off"`
	Records  int64  `json:"records"` // mutations replicated since start
	Resyncs  int64  `json:"resyncs"` // full re-bootstraps (compaction raced the tail)
	Promoted bool   `json:"promoted"`
	LastErr  string `json:"last_err,omitempty"`
}

// Follower tails one shard primary's WAL into a local replica. Safe for
// concurrent use; the tail loop runs in its own goroutine between
// StartFollower and Stop.
type Follower struct {
	primaryAddr string
	dir         string
	opts        FollowerOptions
	cl          *Client

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	db       *DB
	log      *wal.Log
	seg      int
	off      int64
	records  int64
	resyncs  int64
	lastErr  error
	promoted bool
	stopped  bool
}

// StartFollower connects to a shard primary, bootstraps a replica of its
// task database into dir (wiping whatever was there — a follower's state
// is always derived, never authoritative), and starts the tail loop.
func StartFollower(primaryAddr, dir string, opts FollowerOptions) (*Follower, error) {
	if opts.ShardCount < 1 {
		opts.ShardCount = 1
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	cl, err := Dial(primaryAddr, opts.ClientOpts...)
	if err != nil {
		return nil, fmt.Errorf("emews: follower dial primary: %w", err)
	}
	f := &Follower{primaryAddr: primaryAddr, dir: dir, opts: opts, cl: cl, done: make(chan struct{})}
	if err := f.bootstrap(); err != nil {
		cl.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f, nil
}

// bootstrap wipes the replica directory and rebuilds it from the
// primary's snapshot + shipping cursor. Called from StartFollower and,
// under the tail goroutine, on a compaction resync.
func (f *Follower) bootstrap() error {
	f.mu.Lock()
	if old := f.log; old != nil {
		old.Close()
		f.log, f.db = nil, nil
	}
	f.mu.Unlock()
	if err := os.RemoveAll(f.dir); err != nil {
		return fmt.Errorf("emews: follower reset %s: %w", f.dir, err)
	}
	l, err := wal.Open(f.dir, f.opts.WAL)
	if err != nil {
		return err
	}
	if _, err := l.Replay(func([]byte) error { return nil }); err != nil {
		l.Close()
		return err
	}
	db, err := NewDBShard(f.opts.ShardIndex, f.opts.ShardCount)
	if err != nil {
		l.Close()
		return err
	}
	chunk, err := f.cl.WALFetch(0, 0)
	if err != nil {
		l.Close()
		return fmt.Errorf("emews: follower bootstrap: %w", err)
	}
	if chunk.Snapshot && len(chunk.Data) > 0 {
		if err := db.loadSnapshot(chunk.Data); err != nil {
			l.Close()
			return err
		}
		// Persist the snapshot so the replica's own directory boots (and
		// audits) standalone, without the pre-snapshot history.
		if err := l.WriteSnapshot(chunk.Data); err != nil {
			l.Close()
			return err
		}
	}
	f.mu.Lock()
	f.db, f.log = db, l
	f.seg, f.off = chunk.Seg, chunk.Off
	f.mu.Unlock()
	return nil
}

// run is the tail loop: fetch from the cursor, apply, advance, sleep when
// caught up. Transient errors (primary down, mid-failover) are recorded
// and retried; a compaction signal triggers a full resync.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		f.mu.Lock()
		seg, off := f.seg, f.off
		f.mu.Unlock()
		chunk, err := f.cl.WALFetch(seg, off)
		if err != nil {
			f.noteErr(err)
			if !f.sleep(ctx) {
				return
			}
			continue
		}
		if chunk.Seg == 0 {
			// The cursor was compacted away under us: re-bootstrap.
			f.mu.Lock()
			f.resyncs++
			f.mu.Unlock()
			if err := f.bootstrap(); err != nil {
				f.noteErr(err)
				if !f.sleep(ctx) {
					return
				}
			}
			continue
		}
		if err := f.apply(chunk.Data); err != nil {
			// A framing/apply error means the replica diverged (it should
			// not happen on a healthy stream): resync from scratch.
			f.noteErr(err)
			f.mu.Lock()
			f.resyncs++
			f.mu.Unlock()
			if err := f.bootstrap(); err != nil {
				f.noteErr(err)
				if !f.sleep(ctx) {
					return
				}
			}
			continue
		}
		f.mu.Lock()
		f.seg, f.off = chunk.Seg, chunk.Off
		f.lastErr = nil
		f.mu.Unlock()
		if len(chunk.Data) == 0 {
			// Caught up with the primary's tail.
			if !f.sleep(ctx) {
				return
			}
		}
	}
}

// apply appends and replays a run of framed WAL records (one shipped
// chunk, at most wal.DefaultShipBytes) as one commit: the whole chunk is
// decoded, appended with a single Append — one write and at most one
// fsync — and then applied under one db.mu hold. Durable copy first,
// then the in-memory transitions — the same ordering as the primary's
// commits, so the replica's log never lags its state.
func (f *Follower) apply(data []byte) error {
	f.mu.Lock()
	db, l := f.db, f.log
	f.mu.Unlock()
	var payloads [][]byte
	var ms []taskMutation
	for len(data) > 0 {
		payload, n, err := wal.ParseRecord(data, 0)
		if err != nil {
			return fmt.Errorf("emews: follower frame: %w", err)
		}
		m, err := decodeMutation(payload)
		if err != nil {
			return fmt.Errorf("emews: follower decode: %w", err)
		}
		payloads = append(payloads, payload)
		ms = append(ms, m)
		data = data[n:]
	}
	if len(ms) == 0 {
		return nil
	}
	if err := l.Append(payloads...); err != nil {
		return err
	}
	db.mu.Lock()
	for i := range ms {
		if _, err := db.applyLocked(&ms[i]); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	f.mu.Lock()
	f.records += int64(len(ms))
	f.mu.Unlock()
	return nil
}

func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// sleep waits one poll interval; false means the context was canceled.
func (f *Follower) sleep(ctx context.Context) bool {
	t := time.NewTimer(f.opts.PollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Status snapshots the follower's replication progress.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{Seg: f.seg, Off: f.off, Records: f.records, Resyncs: f.resyncs, Promoted: f.promoted}
	if f.lastErr != nil {
		st.LastErr = f.lastErr.Error()
	}
	return st
}

// Stop halts the tail loop. Idempotent; returns once the loop has exited.
// The replica state and log are kept — Stop is the first step of failover,
// not a teardown (that is Close).
func (f *Follower) Stop() {
	f.mu.Lock()
	stopped := f.stopped
	f.stopped = true
	f.mu.Unlock()
	if !stopped {
		f.cancel()
	}
	<-f.done
}

// CatchUp drains the dead primary's log directory from the follower's
// cursor forward, applying every acknowledged mutation the tail loop had
// not shipped before the primary died. Call after Stop, before Promote.
// wal.ErrCompacted here means the replica is too far behind its primary's
// surviving history to catch up losslessly — the caller must rebuild a
// fresh follower instead of promoting this one.
func (f *Follower) CatchUp(primaryDir string) error {
	f.mu.Lock()
	if !f.stopped || f.promoted {
		f.mu.Unlock()
		return errors.New("emews: CatchUp requires a stopped, unpromoted follower")
	}
	seg, off := f.seg, f.off
	f.mu.Unlock()
	for {
		data, nextSeg, nextOff, err := wal.ReadDirAt(primaryDir, seg, off, 0, 0)
		if err != nil {
			return fmt.Errorf("emews: follower catch-up from %s: %w", primaryDir, err)
		}
		if len(data) > 0 {
			if err := f.apply(data); err != nil {
				return err
			}
		}
		f.mu.Lock()
		f.seg, f.off = nextSeg, nextOff
		f.mu.Unlock()
		if len(data) == 0 {
			return nil
		}
		seg, off = nextSeg, nextOff
	}
}

// Promote turns the caught-up replica into a primary and returns its
// database (backed by the follower's own log) ready to Serve. It stops
// the tail loop if still running, then, like OpenDB after a crash, makes
// the replica the primary behind its log (see becomePrimary), so claims
// handed out by the old primary are fenced off (ErrStaleClaim).
//
// The returned log is owned by the caller: close the DB (or the serving
// stack) and then the log on shutdown. The Follower itself is spent.
func (f *Follower) Promote() (*DB, *wal.Log, error) {
	f.Stop()
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil, nil, errors.New("emews: follower already promoted")
	}
	f.promoted = true
	db, l := f.db, f.log
	f.mu.Unlock()
	f.cl.Close()

	if err := db.becomePrimary(l); err != nil {
		return nil, nil, err
	}
	return db, l, nil
}

// Close tears the follower down: stops the tail loop, closes the client,
// and (unless promoted, in which case the caller owns them) closes the
// replica log.
func (f *Follower) Close() {
	f.Stop()
	f.cl.Close()
	f.mu.Lock()
	l, promoted := f.log, f.promoted
	f.mu.Unlock()
	if l != nil && !promoted {
		l.Close()
	}
}

// dump is the replica's test/audit hook: the same sorted task copy as
// DB.Dump, fetched without promoting.
func (f *Follower) dump() []Task {
	f.mu.Lock()
	db := f.db
	f.mu.Unlock()
	return db.Dump()
}
