package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirDrain pulls every record of a dead writer's directory via ReadDirAt,
// the follower catch-up path.
func dirDrain(t *testing.T, dir string, maxBytes int) [][]byte {
	t.Helper()
	var out [][]byte
	seg, off := 1, int64(0)
	for {
		data, nseg, noff, err := ReadDirAt(dir, seg, off, maxBytes, 0)
		if err != nil {
			t.Fatalf("ReadDirAt(%d,%d): %v", seg, off, err)
		}
		if len(data) == 0 {
			return out
		}
		for p := 0; p < len(data); {
			payload, n, err := ParseRecord(data[p:], 0)
			if err != nil {
				t.Fatalf("parse shipped frame: %v", err)
			}
			out = append(out, append([]byte(nil), payload...))
			p += n
		}
		seg, off = nseg, noff
	}
}

// writeImage puts img into a fresh log directory as its only segment.
func writeImage(t *testing.T, img []byte) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	seg = filepath.Join(dir, "seg-00000001.wal")
	if err := os.WriteFile(seg, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, seg
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// A log its writer never closed — the SIGKILL case — ends in the
// zero-filled tail ahead of its last commit. Recovery must return exactly
// the acknowledged records whatever a crash left past them: nothing, a
// last commit cut at any byte, or a CRC-valid stale frame behind a zero
// length field. The follower's catch-up from that directory must ship the
// same records, and a stale frame must stay gone after one more commit.
func TestUnclosedLogZeroTail(t *testing.T) {
	src := t.TempDir()
	opts := Options{Name: "wal.test.zerotail", Policy: SyncNever}
	l, _ := openReplay(t, src, opts)
	defer l.Close()
	const acked = 20
	appendN(t, l, 0, acked)
	img, err := os.ReadFile(filepath.Join(src, "seg-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	end := l.Size()
	if int64(len(img)) < end+64 || !allZero(img[end:]) {
		t.Fatalf("segment of %d bytes for a %d-byte log: want a zero-filled tail of at least 64 bytes", len(img), end)
	}

	quiet := opts
	var warned []string
	quiet.Logf = func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) }

	// Nothing past the last commit: replay is silent and drops the tail.
	dir, seg := writeImage(t, img)
	if got := dirDrain(t, dir, 0); len(got) != acked {
		t.Fatalf("ReadDirAt shipped %d records, want %d", len(got), acked)
	}
	truncated := l.met.truncated.Value()
	lc, recs := openReplay(t, dir, quiet)
	wantRecords(t, recs, 0, acked)
	if len(warned) != 0 || l.met.truncated.Value() != truncated {
		t.Fatalf("zero tail reported as damage: warnings %q", warned)
	}
	if sz := fileSize(t, seg); sz != end {
		t.Fatalf("zero tail not truncated: %d bytes, want %d", sz, end)
	}
	lc.Close()

	// The last commit cut at every byte, zeros behind it.
	torn := EncodeRecord(nil, []byte("record-unacked"))
	for cut := 1; cut < len(torn); cut++ {
		b := bytes.Clone(img)
		copy(b[end:], torn[:cut])
		dir, _ := writeImage(t, b)
		for _, window := range []int{0, 16} {
			if got := dirDrain(t, dir, window); len(got) != acked {
				t.Fatalf("cut at %d, window %d: ReadDirAt shipped %d records, want %d", cut, window, len(got), acked)
			}
		}
		warned = nil
		lc, recs := openReplay(t, dir, quiet)
		wantRecords(t, recs, 0, acked)
		if len(warned) != 1 || !strings.Contains(warned[0], "truncating") {
			t.Fatalf("cut at %d: warnings %q, want one truncation", cut, warned)
		}
		lc.Close()
	}

	// A stale frame behind a zero length field, placed where it would
	// follow the next commit if replay left it on disk.
	next := []byte("record-after-recovery")
	b := bytes.Clone(img)
	copy(b[end+int64(len(EncodeRecord(nil, next))):], EncodeRecord(nil, []byte("record-stale")))
	dir, _ = writeImage(t, b)
	if got := dirDrain(t, dir, 0); len(got) != acked {
		t.Fatalf("stale frame: ReadDirAt shipped %d records, want %d", len(got), acked)
	}
	warned = nil
	l1, recs := openReplay(t, dir, quiet)
	defer l1.Close()
	wantRecords(t, recs, 0, acked)
	if len(warned) != 1 || !strings.Contains(warned[0], "zero length field") {
		t.Fatalf("stale frame: warnings %q, want one truncation", warned)
	}
	if err := l1.Append(next); err != nil {
		t.Fatal(err)
	}
	// Crash again, without Close, and recover.
	l2, recs := openReplay(t, dir, quiet)
	defer l2.Close()
	if len(recs) != acked+1 || !bytes.Equal(recs[acked], next) {
		t.Fatalf("after one more commit: replayed %q past the acknowledged records, want %d records ending %q", recs[min(acked, len(recs)):], acked+1, next)
	}
}

// A zero-length record would frame as eight zero bytes, which reads back
// as the end of the log, so Append refuses it and writes nothing of the
// call that carries it.
func TestAppendRejectsEmptyRecord(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Name: "wal.test.empty", Policy: SyncNever})
	defer l.Close()
	for _, recs := range [][][]byte{{nil}, {{}}, {[]byte("ok-1"), nil, []byte("ok-2")}} {
		if err := l.Append(recs...); err == nil {
			t.Fatalf("Append(%q) succeeded, want error", recs)
		}
	}
	if sz := l.Size(); sz != 0 {
		t.Fatalf("Size after rejected appends = %d, want 0", sz)
	}
}

// Rotation and Close leave every segment at its logical end, so sealed
// segments and a cleanly closed log hold only framed records.
func TestRotationAndCloseTruncateZeroTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.sealed", SegmentBytes: 512, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want >= 3", len(segs))
	}
	var total int64
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			payload, n, err := ParseRecord(data[off:], 0)
			if err != nil || len(payload) == 0 {
				t.Fatalf("%s at %d: payload %q, %v; want only whole records", filepath.Base(p), off, payload, err)
			}
			off += n
		}
		total += int64(len(data))
	}
	if want := int64(100 * (headerSize + 11)); total != want {
		t.Fatalf("segments hold %d bytes, want %d", total, want)
	}
}

// Every flush lands in the <name>.sync latency histogram.
func TestSyncHistogramCountsFlushes(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Name: "wal.test.synchist", Policy: SyncAlways})
	defer l.Close()
	fsyncs, observed := l.met.fsyncs.Value(), l.met.sync.Count()
	appendN(t, l, 0, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.met.sync.Count()-observed, l.met.fsyncs.Value()-fsyncs; got != 4 || want != 4 {
		t.Fatalf("sync histogram observed %d flushes, fsyncs counted %d; want 4 and 4", got, want)
	}
}
