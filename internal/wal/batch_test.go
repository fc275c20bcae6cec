package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func batchRecords(start, n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%04d", start+i))
	}
	return recs
}

// One Append call is one commit: one write, one fsync under SyncAlways,
// and the appends counter still counts records.
func TestAppendBatchIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.batch", Policy: SyncAlways}
	l, _ := openReplay(t, dir, opts)
	appends, fsyncs, bytes := l.met.appends.Value(), l.met.fsyncs.Value(), l.met.bytes.Value()
	if err := l.Append(batchRecords(0, 5)...); err != nil {
		t.Fatal(err)
	}
	if got := l.met.appends.Value() - appends; got != 5 {
		t.Errorf("appends = %d, want 5 (records, not calls)", got)
	}
	if got := l.met.fsyncs.Value() - fsyncs; got != 1 {
		t.Errorf("fsyncs = %d, want 1 for one Append call", got)
	}
	if got := l.met.bytes.Value() - bytes; got != 5*(headerSize+11) {
		t.Errorf("bytes = %d, want %d", got, 5*(headerSize+11))
	}
	// An empty call commits nothing.
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	if got := l.met.fsyncs.Value() - fsyncs; got != 1 {
		t.Errorf("empty Append fsynced: %d fsyncs, want 1", got)
	}
	l.Close()
	l2, recs := openReplay(t, dir, opts)
	defer l2.Close()
	wantRecords(t, recs, 0, 5)
}

// An oversize record anywhere in a call rejects the whole call before a
// byte is written.
func TestAppendBatchOversizeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.batchoversize", MaxRecordBytes: 16, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	if err := l.Append([]byte("ok-1"), make([]byte, 17), []byte("ok-2")); err == nil {
		t.Fatal("batch with an oversize record succeeded, want error")
	}
	if sz := l.Size(); sz != 0 {
		t.Fatalf("Size after rejected batch = %d, want 0", sz)
	}
	l.Close()
}

// A crash anywhere inside one multi-record Append leaves a prefix of the
// batch on disk: recovery replays exactly the whole records before the
// cut and reports (and truncates) a torn tail whenever the cut splits a
// record.
func TestAppendBatchTornAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	opts := Options{Name: "wal.test.batchtorn", Policy: SyncNever}
	l, _ := openReplay(t, src, opts)
	appendN(t, l, 0, 2) // two earlier commits
	before := l.Size()
	const batch = 5
	if err := l.Append(batchRecords(2, batch)...); err != nil {
		t.Fatal(err)
	}
	end := l.Size()
	l.Close()
	data, err := os.ReadFile(filepath.Join(src, "seg-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != end {
		t.Fatalf("segment holds %d bytes, want %d", len(data), end)
	}

	const frame = headerSize + 11 // every record-%04d frame
	for cut := before + 1; cut < end; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var warned []string
		o := opts
		o.Logf = func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) }
		lc, recs := openReplay(t, dir, o)
		whole := int((cut - before) / frame)
		torn := (cut-before)%frame != 0
		wantRecords(t, recs, 0, 2+whole)
		if gotTorn := len(warned) == 1 && strings.Contains(warned[0], "torn tail"); gotTorn != torn || (!torn && len(warned) != 0) {
			t.Fatalf("cut at %d: warnings %q, want torn=%v", cut, warned, torn)
		}
		if sz := lc.Size(); sz != before+int64(whole)*frame {
			t.Fatalf("cut at %d: Size after recovery = %d, want %d", cut, sz, before+int64(whole)*frame)
		}
		lc.Close()
	}
}

// SyncInterval flushes in the background: records left unsynced by a
// burst become durable within SyncEvery without any further append.
func TestSyncIntervalFlushesWhenIdle(t *testing.T) {
	opts := Options{Name: "wal.test.intervalidle", Policy: SyncInterval, SyncEvery: 100 * time.Millisecond}
	l, _ := openReplay(t, t.TempDir(), opts)
	defer l.Close()
	base := l.met.fsyncs.Value()
	if err := l.Append(batchRecords(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if got := l.met.fsyncs.Value() - base; got != 0 {
		t.Fatalf("append inside the interval fsynced %d times, want 0", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.met.fsyncs.Value() == base {
		if time.Now().After(deadline) {
			t.Fatal("unsynced records never flushed while idle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Flushed and idle: nothing re-arms without another append.
	flushed := l.met.fsyncs.Value()
	time.Sleep(3 * opts.SyncEvery)
	if got := l.met.fsyncs.Value(); got != flushed {
		t.Fatalf("idle log fsynced again: %d, want %d", got, flushed)
	}
}

// Close stops a pending background flush: the close fsyncs once and the
// timer never fires on the closed log.
func TestSyncIntervalFlushStoppedByClose(t *testing.T) {
	opts := Options{Name: "wal.test.intervalclose", Policy: SyncInterval, SyncEvery: 100 * time.Millisecond}
	l, _ := openReplay(t, t.TempDir(), opts)
	base := l.met.fsyncs.Value()
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * opts.SyncEvery)
	if got := l.met.fsyncs.Value() - base; got != 1 {
		t.Fatalf("fsyncs = %d, want 1 (the close)", got)
	}
}
