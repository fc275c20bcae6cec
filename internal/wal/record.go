package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: every entry in a segment (and the single entry of a
// snapshot file) is
//
//	[4-byte LE payload length][4-byte LE CRC32(payload, IEEE)][payload]
//
// The frame is deliberately minimal: the length bounds the read, the CRC
// detects both bit rot and the partial write of a crash. A decoder that
// hits either problem reports it as a typed error so recovery can
// truncate the damaged tail instead of refusing to boot.

// headerSize is the framed-record prefix: 4 length bytes + 4 CRC bytes.
const headerSize = 8

// ErrShortRecord reports a record cut off before its declared end — the
// torn tail a crash mid-append leaves behind.
var ErrShortRecord = errors.New("wal: short record (torn tail)")

// ErrCorruptRecord reports a record whose checksum does not match its
// payload, or whose declared length is implausible.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// errZeroHeader reports data after a zero length field. Append never
// writes a zero-length record, so a zero length field is where the log
// ends, and anything non-zero past it is the stale remnant of a commit
// whose start never reached the disk.
var errZeroHeader = fmt.Errorf("%w: data after a zero length field", ErrCorruptRecord)

// EncodeRecord appends the framed form of payload to dst and returns the
// extended slice.
func EncodeRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ParseRecord decodes the first framed record in b, returning the payload
// (aliasing b, not copied) and the total number of bytes consumed.
// maxLen > 0 rejects records declaring a longer payload as corrupt (a
// garbage length field would otherwise read as a huge torn tail). The
// parser never panics and never reads past len(b), whatever the input.
func ParseRecord(b []byte, maxLen int) (payload []byte, n int, err error) {
	if len(b) < headerSize {
		return nil, 0, ErrShortRecord
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if maxLen > 0 && int64(ln) > int64(maxLen) {
		return nil, 0, fmt.Errorf("%w: declared length %d exceeds limit %d", ErrCorruptRecord, ln, maxLen)
	}
	if int64(ln) > int64(len(b)-headerSize) {
		return nil, 0, ErrShortRecord
	}
	payload = b[headerSize : headerSize+int(ln)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	return payload, headerSize + int(ln), nil
}

// parseLogRecord is ParseRecord for a segment, whose active tail is
// zero-filled: a zero length field ends the log, returning n == 0 with no
// error when only zeros follow and errZeroHeader when anything else does.
func parseLogRecord(b []byte, maxLen int) (payload []byte, n int, err error) {
	if !zeroLength(b) {
		return ParseRecord(b, maxLen)
	}
	if !allZero(b) {
		return nil, 0, errZeroHeader
	}
	return nil, 0, nil
}

// zeroLength reports whether b starts with a zero length field (or with
// zeros up to its end, if shorter): where a segment's records end.
func zeroLength(b []byte) bool { return allZero(b[:min(len(b), 4)]) }

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
