package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// WAL shipping: the read-side API replication is built on. A follower
// tracks a cursor (segment index, byte offset) into the primary's record
// stream and repeatedly asks for the framed records after it. The primary
// answers from its live *Log via ReadAt; a coordinator catching a
// follower up from a dead primary's directory uses ReadDirAt, which needs
// no open Log. Both return raw framed bytes — only whole records, never a
// partial frame — so the receiver can ParseRecord its way through and
// append the identical payloads to its own log.

// ErrCompacted reports a shipping cursor that points before the oldest
// live segment (compaction deleted it) or past the newest one (the
// primary's history was truncated or replaced). Either way the follower's
// incremental position is useless and it must re-bootstrap from a
// snapshot.
var ErrCompacted = errors.New("wal: cursor outside live segments (re-bootstrap required)")

// DefaultShipBytes bounds one shipping read when the caller passes
// maxBytes <= 0.
const DefaultShipBytes = 256 << 10

// ShipBootstrap returns the starting state for a new follower: the newest
// snapshot payload on disk (nil if the log has never been compacted) and
// the cursor the follower should tail from after applying it.
func (l *Log) ShipBootstrap() (snapshot []byte, seg int, off int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, 0, ErrClosed
	}
	if !l.replayed {
		return nil, 0, 0, errors.New("wal: ShipBootstrap before Replay")
	}
	if l.snapIdx > 0 {
		payload, rerr := readSnapshotFile(l.snapPath(l.snapIdx))
		if rerr != nil {
			return nil, 0, 0, fmt.Errorf("wal: bootstrap snapshot: %w", rerr)
		}
		return payload, l.snapIdx, 0, nil
	}
	return nil, l.segs[0], 0, nil
}

// ReadAt returns the framed records at cursor (seg, off), advancing
// across sealed segment boundaries as needed, up to roughly maxBytes per
// call (at least one whole record when any is available). The returned
// cursor addresses the byte after the last returned record; an empty
// result means the follower is caught up with the active tail (the
// cursor may still normalize past sealed segment boundaries — always
// tail from the returned cursor). A cursor outside the live segments
// returns ErrCompacted.
func (l *Log) ReadAt(seg int, off int64, maxBytes int) (data []byte, nextSeg int, nextOff int64, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, 0, ErrClosed
	}
	if !l.replayed {
		l.mu.Unlock()
		return nil, 0, 0, errors.New("wal: ReadAt before Replay")
	}
	first := l.segs[0]
	active := l.seg
	activeSize := l.size
	maxRec := l.opts.MaxRecordBytes
	l.mu.Unlock()

	// Sealed segments are immutable and the active segment is append-only,
	// so the files can be read without the lock; the active segment is
	// clamped to the size captured above so a concurrent append is never
	// observed half-written. A segment deleted by concurrent compaction
	// reads as ErrCompacted, which is exactly what it means.
	return shipRead(l.segPath, first, active, activeSize, seg, off, maxBytes, maxRec)
}

// ReadDirAt is ReadAt over a log directory with no open Log — the
// coordinator's catch-up path from a dead primary's data dir. The caller
// must know the process that owned the directory is gone. The newest
// segment's records end where Replay would truncate it: at its first zero
// length field or damaged frame. maxRecordBytes <= 0 uses
// DefaultMaxRecordBytes.
func ReadDirAt(dir string, seg int, off int64, maxBytes, maxRecordBytes int) (data []byte, nextSeg int, nextOff int64, err error) {
	if maxRecordBytes <= 0 {
		maxRecordBytes = DefaultMaxRecordBytes
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	var segIdx []int
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), "seg-", ".wal"); ok {
			segIdx = append(segIdx, idx)
		}
	}
	if len(segIdx) == 0 {
		return nil, 0, 0, fmt.Errorf("wal: no segments in %s", dir)
	}
	sort.Ints(segIdx)
	segPath := func(idx int) string {
		return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", idx))
	}
	// No size clamp on the last segment: the writer is dead, and its tail
	// is wherever the records stop.
	return shipRead(segPath, segIdx[0], segIdx[len(segIdx)-1], -1, seg, off, maxBytes, maxRecordBytes)
}

// shipRead walks segments from (seg, off) collecting whole framed
// records. activeSize >= 0 clamps reads of the active segment; < 0 marks
// a dead writer, whose last segment may end in a torn commit.
func shipRead(segPath func(int) string, first, active int, activeSize int64, seg int, off int64, maxBytes, maxRec int) ([]byte, int, int64, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultShipBytes
	}
	if seg < first || seg > active {
		return nil, 0, 0, ErrCompacted
	}
	for {
		limit := int64(-1)
		if seg == active && activeSize >= 0 {
			limit = activeSize
		}
		tail := seg == active && activeSize < 0
		data, consumed, err := readSegmentAt(segPath(seg), off, limit, tail, maxBytes, maxRec)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, 0, 0, ErrCompacted
			}
			return nil, 0, 0, err
		}
		if len(data) > 0 {
			return data, seg, off + consumed, nil
		}
		if seg < active {
			// Sealed and exhausted at this offset (at its end, or at a zero
			// tail a crash kept from being truncated); every record in a
			// sealed segment is a complete frame, so move to the next one.
			seg, off = seg+1, 0
			continue
		}
		return nil, seg, off, nil // caught up with the active tail
	}
}

// readSegmentAt reads the whole framed records of one segment file
// starting at off, up to roughly maxBytes (always at least one record
// when a complete one is present, even if it alone exceeds maxBytes).
// limit >= 0 caps the readable file size. A zero length field ends the
// segment's records. A trailing partial frame is left for the next call;
// a corrupt frame is an error, except in the tail segment of a dead
// writer, where it is the torn last commit and ends the records too.
func readSegmentAt(path string, off, limit int64, tail bool, maxBytes, maxRec int) (data []byte, consumed int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size := limit
	if size < 0 {
		st, err := f.Stat()
		if err != nil {
			return nil, 0, err
		}
		size = st.Size()
	}
	if off >= size {
		return nil, 0, nil
	}
	want := size - off
	if want > int64(maxBytes) {
		want = int64(maxBytes)
	}
	buf := make([]byte, want)
	n, err := readFullAt(f, buf, off)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: ship read %s: %w", path, err)
	}
	buf = buf[:n]

	// parseErr judges a frame that did not parse at off+at: a partial
	// frame waits for the next call, and so, for a dead writer's tail,
	// does anything else, since no later call gets past it either.
	parseErr := func(at int, perr error) error {
		if errors.Is(perr, ErrShortRecord) || tail {
			return nil
		}
		return fmt.Errorf("wal: ship parse %s at %d: %w", path, off+int64(at), perr)
	}
	parsed := 0
	for parsed < len(buf) {
		if zeroLength(buf[parsed:]) {
			return buf[:parsed], int64(parsed), nil
		}
		_, rn, perr := ParseRecord(buf[parsed:], maxRec)
		if perr != nil {
			if err := parseErr(parsed, perr); err != nil {
				return nil, 0, err
			}
			break
		}
		parsed += rn
	}
	if parsed == 0 && off+int64(len(buf)) < size && len(buf) >= headerSize {
		// A single record longer than maxBytes straddles the window: read
		// exactly that record so the cursor always makes progress.
		ln := int64(binary.LittleEndian.Uint32(buf))
		if maxRec > 0 && ln > int64(maxRec) {
			return nil, 0, parseErr(0, ErrCorruptRecord)
		}
		if need := headerSize + ln; off+need <= size {
			big := make([]byte, need)
			if _, err := readFullAt(f, big, off); err != nil {
				return nil, 0, fmt.Errorf("wal: ship read %s: %w", path, err)
			}
			_, rn, perr := ParseRecord(big, maxRec)
			if perr == nil {
				return big[:rn], int64(rn), nil
			}
			return nil, 0, parseErr(0, perr)
		}
	}
	return buf[:parsed], int64(parsed), nil
}

// readFullAt reads len(buf) bytes at off, tolerating a short read at EOF.
func readFullAt(f *os.File, buf []byte, off int64) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := f.ReadAt(buf[total:], off+int64(total))
		total += n
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
	}
	return total, nil
}
