// Package wal is the durable storage engine shared by the AERO metadata
// store and the EMEWS task database: a segmented append-only log of
// length-prefixed, CRC32-checksummed records, plus point-in-time snapshots
// with log compaction.
//
// Layout of a log directory:
//
//	seg-00000001.wal    framed mutation records, oldest live segment
//	seg-00000002.wal    newer segments, rotated at Options.SegmentBytes
//	snap-00000002.snap  one framed record holding a full state snapshot
//
// A snapshot's index N means "state as of everything before segment N":
// recovery loads the newest readable snapshot and replays segments >= N in
// order. Writing a snapshot rotates the log to segment N and deletes the
// older segments and snapshots (compaction), so replay cost is bounded by
// the snapshot cadence, not by process lifetime.
//
// Recovery tolerates a torn tail. A record cut short by a crash — or one
// whose checksum no longer matches — ends replay at the last good record;
// the damaged suffix is truncated, a warning is logged, and the store
// boots with every fsynced record intact. Tail damage never refuses a
// boot.
//
// One Append call is one commit: every record it carries is framed with
// EncodeRecord into one buffer and written at the segment's logical end,
// and the fsync policy (SyncAlways, SyncInterval, SyncNever) is applied
// once per call, trading durability of the most recent commits for
// throughput. A crash mid-write leaves a prefix of the call's records on
// disk, which recovery replays up to the torn tail.
//
// The active segment is zero-filled ahead of its logical end, so a
// commit overwrites blocks the file already has and its flush is an
// fdatasync that need not commit the filesystem journal (on Linux; other
// platforms fsync). A zero length field therefore marks the end of the
// log, and Append rejects a zero-length record, whose frame would be
// eight zero bytes. Rotation and Close truncate the segment to its
// logical end; Replay truncates a zero tail left by a crash, along with
// anything after it, so stale bytes past the end never come back.
// Everything is stdlib-only.
package wal

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append call: no committed mutation is
	// ever lost to a crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery: on the
	// append path once the interval has elapsed, and otherwise from a
	// background flush armed by the first unsynced append. A crash can
	// lose the records of the last interval, never corrupt older ones.
	SyncInterval
	// SyncNever leaves flushing to the OS: fastest, weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spellings "always", "interval", "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
	}
}

// Option defaults.
const (
	DefaultSegmentBytes   = 8 << 20  // rotate segments at 8 MiB
	DefaultMaxRecordBytes = 16 << 20 // reject longer records as corrupt
	DefaultSyncEvery      = 100 * time.Millisecond
)

// zeroFillMax caps one zero-fill of the active segment: each fill extends
// the zero-filled tail by the segment's current size, up to 1 MiB, so a
// small log stays small and a large one pays one extending flush per MiB.
const zeroFillMax = 1 << 20

// zeros is the source of zero-fill writes; it sits in BSS, so reading it
// costs no resident memory.
var zeros [zeroFillMax]byte

// Options configures a Log. The zero value is usable: 8 MiB segments,
// fsync on every append, 16 MiB record cap, warnings to the standard
// logger, metrics under the "wal" prefix.
type Options struct {
	// Name prefixes this log's obs metrics ("wal.aero" yields
	// "wal.aero.appends", ...). Default "wal".
	Name string
	// SegmentBytes rotates the active segment once it reaches this size.
	SegmentBytes int64
	// Policy selects the fsync cadence.
	Policy SyncPolicy
	// SyncEvery bounds staleness under SyncInterval.
	SyncEvery time.Duration
	// MaxRecordBytes bounds a single record; longer declared lengths are
	// treated as corruption during replay.
	MaxRecordBytes int
	// Logf receives recovery warnings (torn tails, dropped segments).
	// Default log.Printf.
	Logf func(format string, args ...any)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is one durable, single-writer storage engine instance. All methods
// are safe for concurrent use, though the intended callers (the stores)
// serialize appends under their own mutation lock anyway.
type Log struct {
	dir  string
	opts Options
	met  *metrics

	mu       sync.Mutex
	f        *os.File // active segment (nil until Replay finishes)
	seg      int      // active segment index
	size     int64    // active segment's logical end: the next commit's offset
	zeroed   int64    // active segment's file size: size plus its zero-filled tail
	segs     []int    // live segment indices, ascending; last is active
	snapIdx  int      // newest readable snapshot index (0 = none)
	snap     []byte   // snapshot payload, released after Replay
	buf      []byte   // append scratch buffer
	lastSync time.Time
	dirty    bool        // bytes written since the last fsync
	flush    *time.Timer // pending SyncInterval background flush
	replayed bool
	closed   bool
}

// Open scans (creating if necessary) a log directory and returns the log
// positioned for recovery: Snapshot exposes the newest readable snapshot,
// and Replay must be called once — even on a fresh directory — before
// Append or WriteSnapshot.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Name == "" {
		opts.Name = "wal"
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, met: newMetrics(opts.Name)}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segIdx, snapIdx []int
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), "seg-", ".wal"); ok {
			segIdx = append(segIdx, idx)
		}
		if idx, ok := parseIndexed(e.Name(), "snap-", ".snap"); ok {
			snapIdx = append(snapIdx, idx)
		}
	}
	sort.Ints(segIdx)
	sort.Sort(sort.Reverse(sort.IntSlice(snapIdx)))

	// Newest readable snapshot wins; an unreadable one is warned about and
	// skipped, falling back to an older snapshot or a full replay — tail
	// or snapshot damage must never refuse a boot.
	for _, idx := range snapIdx {
		payload, err := readSnapshotFile(l.snapPath(idx))
		if err != nil {
			l.opts.Logf("wal: ignoring unreadable snapshot %s: %v", filepath.Base(l.snapPath(idx)), err)
			continue
		}
		l.snapIdx = idx
		l.snap = payload
		break
	}

	prev := 0
	for _, idx := range segIdx {
		if idx < l.snapIdx {
			// Covered by the snapshot; normally deleted at compaction
			// time, so any leftover is stale and can go.
			_ = os.Remove(l.segPath(idx))
			continue
		}
		if prev != 0 && idx != prev+1 {
			l.opts.Logf("wal: segment gap between %d and %d; recovered state may be incomplete", prev, idx)
		}
		prev = idx
		l.segs = append(l.segs, idx)
	}
	return l, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// maxLen 0: snapshots hold full store state and may legitimately
	// exceed the per-record cap.
	payload, _, err := ParseRecord(data, 0)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), payload...), nil
}

// parseIndexed extracts the numeric index from names like seg-00000012.wal.
func parseIndexed(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	idx, err := strconv.Atoi(mid)
	if err != nil || idx < 1 {
		return 0, false
	}
	return idx, true
}

func (l *Log) segPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", idx))
}

func (l *Log) snapPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%08d.snap", idx))
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Snapshot returns the newest readable snapshot payload, if any. Valid
// until Replay is called (recovery loads the snapshot first, then
// replays).
func (l *Log) Snapshot() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap, l.snap != nil
}

// Replay invokes apply for every record after the snapshot, oldest first,
// then opens the log for appending. A torn or corrupt tail — including
// non-zero bytes after a zero length field — is truncated with a warning
// (and any segments after the damage are dropped, since ordering past it
// is unsafe); a tail of only zeros, left by a writer that never closed
// its log, is truncated silently. An apply error aborts recovery. Replay
// must be called exactly once, even on a fresh directory.
func (l *Log) Replay(apply func(rec []byte) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.replayed {
		return 0, errors.New("wal: already replayed")
	}
	start := time.Now()
	count := 0
	for si, idx := range l.segs {
		path := l.segPath(idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return count, fmt.Errorf("wal: %w", err)
		}
		off, damaged := 0, false
		for off < len(data) {
			payload, n, err := parseLogRecord(data[off:], l.opts.MaxRecordBytes)
			if err == nil && n == 0 {
				// The zero-filled tail of a segment its writer never
				// closed: the log ends here, and the tail goes so the
				// file again ends at its logical end.
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return count, fmt.Errorf("wal: truncate zero tail: %w", terr)
				}
				break
			}
			if err != nil {
				l.opts.Logf("wal: %s: %v at offset %d; truncating %d damaged byte(s)",
					filepath.Base(path), err, off, len(data)-off)
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return count, fmt.Errorf("wal: truncate torn tail: %w", terr)
				}
				l.met.truncated.Inc()
				damaged = true
				break
			}
			if err := apply(payload); err != nil {
				return count, fmt.Errorf("wal: apply record %d of %s: %w", count+1, filepath.Base(path), err)
			}
			count++
			off += n
		}
		if damaged {
			for _, later := range l.segs[si+1:] {
				l.opts.Logf("wal: dropping segment %s written after damaged tail", filepath.Base(l.segPath(later)))
				_ = os.Remove(l.segPath(later))
				l.met.truncated.Inc()
			}
			l.segs = l.segs[:si+1]
			break
		}
	}

	active := l.snapIdx
	if len(l.segs) > 0 {
		active = l.segs[len(l.segs)-1]
	}
	if active < 1 {
		active = 1
	}
	f, err := os.OpenFile(l.segPath(active), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return count, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return count, fmt.Errorf("wal: %w", err)
	}
	if len(l.segs) == 0 {
		l.segs = []int{active}
		l.syncDir()
	}
	l.f, l.seg, l.size, l.zeroed = f, active, st.Size(), st.Size()
	l.snap = nil
	l.replayed = true
	l.lastSync = time.Now()
	l.met.lastReplayMS.Set(time.Since(start).Milliseconds())
	l.met.replays.Inc()
	l.met.segments.Set(int64(len(l.segs)))
	return count, nil
}

// Append durably appends recs as one commit: all records are framed into
// one buffer and written at the active segment's logical end, and the
// fsync policy is applied once for the whole call. An empty or
// over-MaxRecordBytes record rejects the call before anything is written
// (an empty record's frame is all zeros, which reads back as the end of
// the log). The stores built on a Log are fail-stop: a mutation is
// applied to memory only after Append succeeded.
func (l *Log) Append(recs ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.replayed {
		return errors.New("wal: Append before Replay")
	}
	if len(recs) == 0 {
		return nil
	}
	l.buf = l.buf[:0]
	for _, rec := range recs {
		if len(rec) == 0 {
			return errors.New("wal: empty record")
		}
		if len(rec) > l.opts.MaxRecordBytes {
			return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes %d", len(rec), l.opts.MaxRecordBytes)
		}
		l.buf = EncodeRecord(l.buf, rec)
	}
	end := l.size + int64(len(l.buf))
	if end > l.zeroed {
		if err := l.zeroFillLocked(end); err != nil {
			return err
		}
	}
	if _, err := l.f.WriteAt(l.buf, l.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size = end
	l.zeroed = max(l.zeroed, end)
	l.dirty = true
	l.met.appends.Add(int64(len(recs)))
	l.met.bytes.Add(int64(len(l.buf)))
	switch l.opts.Policy {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			if err := l.syncLocked(); err != nil {
				return err
			}
		} else if l.flush == nil {
			l.flush = time.AfterFunc(l.opts.SyncEvery, l.intervalFlush)
		}
	}
	if l.size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// zeroFillLocked extends the active segment's zero-filled tail ahead of a
// commit that will end at end: by the segment's current size, at most
// zeroFillMax, never past SegmentBytes, and not at all on an empty
// segment. The commit's own write fills any gap below end. Commits then
// overwrite allocated blocks, so most flushes move no file metadata.
func (l *Log) zeroFillLocked(end int64) error {
	target := min(end+min(l.size, zeroFillMax), max(end, l.opts.SegmentBytes))
	for off := end; off < target; {
		n, err := l.f.WriteAt(zeros[:min(target-off, zeroFillMax)], off)
		if err != nil {
			return fmt.Errorf("wal: zero-fill: %w", err)
		}
		off += int64(n)
	}
	if target > end {
		l.zeroed = target
	}
	return nil
}

// intervalFlush is the SyncInterval background flush: it fsyncs records
// an append left unsynced, so a burst followed by idleness is still
// durable within one SyncEvery.
func (l *Log) intervalFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flush = nil
	if l.closed || l.f == nil || !l.dirty {
		return
	}
	if err := l.syncLocked(); err != nil {
		l.opts.Logf("wal: background flush: %v", err)
	}
}

// stopFlushLocked cancels a pending background flush.
func (l *Log) stopFlushLocked() {
	if l.flush != nil {
		l.flush.Stop()
		l.flush = nil
	}
}

// Sync forces a flush of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := fdatasync(l.f); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSync = time.Now()
	l.met.sync.Observe(l.lastSync.Sub(start))
	l.dirty = false
	l.met.fsyncs.Inc()
	return nil
}

// rotateLocked seals the active segment at its logical end and starts
// the next one.
func (l *Log) rotateLocked() error {
	if err := l.truncateTailLocked(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	next := l.seg + 1
	f, err := os.OpenFile(l.segPath(next), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.seg, l.size, l.zeroed = f, next, 0, 0
	l.segs = append(l.segs, next)
	l.syncDir()
	l.met.segments.Set(int64(len(l.segs)))
	return nil
}

// WriteSnapshot atomically records a full-state snapshot and compacts the
// log: the snapshot is written (tmp + rename), the log rotates to a fresh
// segment, and every older segment and snapshot is deleted. The caller
// must hold its own mutation lock across the state serialization AND this
// call, so no record can land in a segment that compaction deletes.
func (l *Log) WriteSnapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.replayed {
		return errors.New("wal: WriteSnapshot before Replay")
	}
	l.stopFlushLocked()
	if err := l.syncLocked(); err != nil {
		return err
	}
	newIdx := l.seg + 1

	tmp := filepath.Join(l.dir, "snap.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(EncodeRecord(nil, state)); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, l.snapPath(newIdx)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.syncDir()

	// The snapshot is durable; rotate onto its segment index and drop
	// everything it covers.
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	nf, err := os.OpenFile(l.segPath(newIdx), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, idx := range l.segs {
		if idx < newIdx {
			_ = os.Remove(l.segPath(idx))
		}
	}
	if olds, err := filepath.Glob(filepath.Join(l.dir, "snap-*.snap")); err == nil {
		for _, p := range olds {
			if idx, ok := parseIndexed(filepath.Base(p), "snap-", ".snap"); ok && idx < newIdx {
				_ = os.Remove(p)
			}
		}
	}
	l.f, l.seg, l.size, l.zeroed = nf, newIdx, 0, 0
	l.segs = []int{newIdx}
	l.snapIdx = newIdx
	l.syncDir()
	l.met.snapshots.Inc()
	l.met.segments.Set(1)
	return nil
}

// Size returns the total bytes of live segments — the replay debt a crash
// right now would incur. Callers use it to decide when to compact.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, idx := range l.segs {
		if idx == l.seg {
			total += l.size
			continue
		}
		if st, err := os.Stat(l.segPath(idx)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// Close truncates the active segment to its logical end, flushes and
// closes it. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.stopFlushLocked()
	if l.f == nil {
		return nil
	}
	err := l.truncateTailLocked()
	if serr := l.syncLocked(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// truncateTailLocked drops the active segment's zero-filled tail, so a
// sealed segment or a closed log ends at its last record. The flush that
// follows makes the new size durable; until then a crash leaves a zero
// tail, which Replay truncates in turn.
func (l *Log) truncateTailLocked() error {
	if l.zeroed == l.size {
		return nil
	}
	if err := l.f.Truncate(l.size); err != nil {
		return fmt.Errorf("wal: truncate zero tail: %w", err)
	}
	l.zeroed = l.size
	return nil
}

// syncDir fsyncs the directory so renames and new files survive a crash.
// Best-effort: some platforms reject fsync on directories.
func (l *Log) syncDir() {
	d, err := os.Open(l.dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
