package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzParseRecord hammers the record decoder with arbitrary bytes: it must
// never panic, never read past the input, and always round-trip a frame it
// produced itself. This is the parser that decides, at boot, where a
// crash-damaged log ends — it has to be unconditionally safe.
func FuzzParseRecord(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add(EncodeRecord(nil, []byte("hello")), 0)
	f.Add(EncodeRecord(nil, nil), 64)
	f.Add(EncodeRecord(nil, bytes.Repeat([]byte{0xAB}, 300)), 128) // over maxLen
	torn := EncodeRecord(nil, []byte("torn-tail-record"))
	f.Add(torn[:len(torn)-3], 0) // cut mid-payload
	f.Add(torn[:headerSize-2], 0)
	badCRC := EncodeRecord(nil, []byte("checksummed"))
	badCRC[headerSize] ^= 0xFF
	f.Add(badCRC, 0)
	hugeLen := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hugeLen, 0xFFFFFFFF)
	f.Add(hugeLen, 1<<20)

	f.Fuzz(func(t *testing.T, b []byte, maxLen int) {
		payload, n, err := ParseRecord(b, maxLen)
		if err != nil {
			if payload != nil || n != 0 {
				t.Fatalf("error return leaked payload=%v n=%d", payload, n)
			}
			return
		}
		if n < headerSize || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		if len(payload) != n-headerSize {
			t.Fatalf("payload length %d inconsistent with n=%d", len(payload), n)
		}
		if maxLen > 0 && len(payload) > maxLen {
			t.Fatalf("payload of %d bytes exceeds maxLen %d", len(payload), maxLen)
		}
		// A successfully parsed frame re-encodes to the exact bytes consumed.
		if enc := EncodeRecord(nil, payload); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, b[:n])
		}
	})
}

// FuzzReplayTail writes a segment of valid frames, then arbitrary bytes,
// then zeros — what a crash can leave past a log's last commit — and
// replays it. Replay must never panic and must return exactly the valid
// prefix: the longest run of whole, non-empty, checksummed frames from
// the start. It truncates the file there, a second replay returns the
// same records, and ReadDirAt, the follower's catch-up read, ships them
// too.
func FuzzReplayTail(f *testing.F) {
	f.Add(uint8(3), []byte(nil), uint16(64))
	f.Add(uint8(2), []byte("garbage"), uint16(0))
	f.Add(uint8(1), EncodeRecord(nil, []byte("stale")), uint16(300))
	f.Add(uint8(4), append(make([]byte, headerSize), EncodeRecord(nil, []byte("stale"))...), uint16(16))
	torn := EncodeRecord(nil, []byte("torn-commit"))
	f.Add(uint8(5), torn[:len(torn)-4], uint16(1024))
	f.Add(uint8(0), []byte{0, 0, 0, 1}, uint16(3))

	const maxRec = 1 << 12
	f.Fuzz(func(t *testing.T, n uint8, garbage []byte, nzeros uint16) {
		var img []byte
		for i := 0; i < int(n%8); i++ {
			img = EncodeRecord(img, []byte(fmt.Sprintf("record-%04d", i)))
		}
		img = append(img, garbage...)
		img = append(img, make([]byte, nzeros)...)

		var want [][]byte
		end := 0
		for end < len(img) {
			payload, n, err := ParseRecord(img[end:], maxRec)
			if err != nil || len(payload) == 0 {
				break
			}
			want = append(want, payload)
			end += n
		}

		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-00000001.wal")
		if err := os.WriteFile(seg, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var shipped [][]byte
		for s, off := 1, int64(0); ; {
			data, ns, noff, err := ReadDirAt(dir, s, off, 64, maxRec)
			if err != nil {
				t.Fatalf("ReadDirAt(%d,%d): %v", s, off, err)
			}
			if len(data) == 0 {
				break
			}
			for p := 0; p < len(data); {
				payload, n, err := ParseRecord(data[p:], 0)
				if err != nil {
					t.Fatalf("shipped frame: %v", err)
				}
				shipped = append(shipped, bytes.Clone(payload))
				p += n
			}
			s, off = ns, noff
		}
		if !slices.EqualFunc(shipped, want, bytes.Equal) {
			t.Fatalf("ReadDirAt shipped %q, want %q", shipped, want)
		}

		opts := Options{Name: "wal.fuzz.tail", MaxRecordBytes: maxRec, Policy: SyncNever, Logf: func(string, ...any) {}}
		for round := 0; round < 2; round++ {
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			if _, err := l.Replay(func(rec []byte) error {
				got = append(got, bytes.Clone(rec))
				return nil
			}); err != nil {
				t.Fatalf("round %d: Replay: %v", round, err)
			}
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("round %d: replayed %q, want %q", round, got, want)
			}
			if st, err := os.Stat(seg); err != nil || st.Size() != int64(end) {
				t.Fatalf("round %d: segment not truncated to %d: %v, %v", round, end, st, err)
			}
			l.Close()
		}
	})
}
