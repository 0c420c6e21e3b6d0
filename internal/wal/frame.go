package wal

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// Frame layout (little-endian), one per ledger record. Two payload
// versions coexist, distinguished by the length prefix:
//
// v1 (plain issue records, and every frame written before the lifecycle
// ledger existed):
//
//	offset  size  field
//	0       4     payload length (uint32; recordPayloadSize)
//	4       4     CRC32C (Castagnoli) of the payload bytes
//	8       8     belongs-to set (bitset.Mask as uint64)
//	16      8     permission count (int64, positive)
//
// v2 (any record carrying a kind or expiry metadata):
//
//	offset  size  field
//	0       4     payload length (uint32; ledgerPayloadSize)
//	4       4     CRC32C (Castagnoli) of the payload bytes
//	8       1     kind byte (logstore.Kind)
//	9       8     belongs-to set (bitset.Mask as uint64)
//	17      8     signed effective count (int64): positive for issues
//	              and transfers, negative for revokes and expiries; the
//	              sign must agree with the kind byte or the frame is
//	              corrupt
//	25      8     expiry (int64 unix seconds, 0 = none)
//
// Plain issues keep the v1 encoding, so a log that never uses lifecycle
// records is byte-identical to one written by the pre-lifecycle store —
// and v1 segments replay as implicit issue records with no migration.
// The length prefix makes the format self-delimiting; the CRC detects
// both bit rot and — unlike JSONL — tails torn at a byte position that
// still happens to parse. A frame is valid iff its length names a known
// version, the payload is fully present, the CRC matches, the kind and
// count sign agree, the decoded record passes logstore validation, and
// its version is the one appendFrame writes for that record: a frame
// re-encodes to exactly its own bytes.
const (
	frameHeaderSize   = 8
	recordPayloadSize = 16
	recordFrameSize   = frameHeaderSize + recordPayloadSize
	ledgerPayloadSize = 25
	ledgerFrameSize   = frameHeaderSize + ledgerPayloadSize

	// maxPayloadSize bounds the length prefix a reader will trust, so a
	// corrupt length cannot make recovery skip gigabytes.
	maxPayloadSize = 1 << 16
)

// castagnoli returns hash/crc32's CRC32C (Castagnoli) table, which
// hash/crc32 makes on the first call rather than when the package loads.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// checksum returns the CRC32C (Castagnoli) of a frame payload, which
// hash/crc32 computes with the CPU's CRC32C instruction where it has one.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli()) }

// hasCRC32C reports whether recordRun takes the hardware path,
// recordRunHW, rather than recordRunPortable. It is set once, from
// CPUID, when the package loads.
var hasCRC32C = cpuHasCRC32C()

// recordRun returns how many whole v1 frames at the start of b, up to
// the first that fails, pass every check parseFrame gives a v1 frame:
// the length prefix names the v1 payload, the CRC32C matches, and the
// payload holds a non-empty set and a positive count, which is all
// Validate asks of a v1 record (kind issue, no expiry). It checks at
// most len(b)/recordFrameSize frames.
func recordRun(b []byte) int {
	if hasCRC32C {
		return recordRunHW(b)
	}
	return recordRunPortable(b)
}

// recordRunPortable is recordRun through hash/crc32.
func recordRunPortable(b []byte) int {
	n := 0
	for ; len(b) >= recordFrameSize; b = b[recordFrameSize:] {
		set, count := recordFields(b)
		if binary.LittleEndian.Uint32(b[0:4]) != recordPayloadSize || set == 0 || count <= 0 ||
			checksum(b[frameHeaderSize:recordFrameSize]) != binary.LittleEndian.Uint32(b[4:8]) {
			break
		}
		n++
	}
	return n
}

// recordFields returns the set and count of the v1 frame at the start
// of f, checked or not.
func recordFields(f []byte) (bitset.Mask, int64) {
	f = f[:recordFrameSize]
	return bitset.Mask(binary.LittleEndian.Uint64(f[8:16])), int64(binary.LittleEndian.Uint64(f[16:24]))
}

// frameSize returns the encoded size of r's frame.
func frameSize(r logstore.Record) int64 {
	if r.Kind == logstore.KindIssue && r.Expiry == 0 {
		return recordFrameSize
	}
	return ledgerFrameSize
}

// appendFrame appends r's frame to buf and returns the extended slice.
// The payload is written in place and the CRC32C filled in after it.
func appendFrame(buf []byte, r logstore.Record) []byte {
	start := len(buf)
	if r.Kind == logstore.KindIssue && r.Expiry == 0 {
		buf = binary.LittleEndian.AppendUint32(buf, recordPayloadSize)
		buf = append(buf, 0, 0, 0, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Set))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Count))
	} else {
		stored := r.Effective()
		if r.Kind == logstore.KindTransfer {
			stored = r.Count
		}
		buf = binary.LittleEndian.AppendUint32(buf, ledgerPayloadSize)
		buf = append(buf, 0, 0, 0, 0, byte(r.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Set))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(stored))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Expiry))
	}
	binary.LittleEndian.PutUint32(buf[start+4:], checksum(buf[start+frameHeaderSize:]))
	return buf
}

// frameStatus classifies one parse attempt.
type frameStatus int

const (
	// frameOK: a valid frame was decoded.
	frameOK frameStatus = iota
	// frameShort: b ends before the frame does — at the end of the last
	// segment this is a torn tail, elsewhere it is corruption.
	frameShort
	// frameCorrupt: the bytes are structurally wrong (absurd length, CRC
	// mismatch, unknown kind, kind/count sign mismatch, or an invalid
	// decoded record).
	frameCorrupt
)

// parseFrame decodes the frame at the start of b, returning the record
// and the bytes consumed when status is frameOK.
func parseFrame(b []byte) (rec logstore.Record, n int, status frameStatus) {
	if len(b) < frameHeaderSize {
		return rec, 0, frameShort
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length != recordPayloadSize && length != ledgerPayloadSize {
		// An unknown (future) payload size is corruption for this reader
		// version: we cannot check its record invariants. Absurd lengths
		// (beyond maxPayloadSize) are corruption outright.
		return rec, 0, frameCorrupt
	}
	if len(b) < frameHeaderSize+int(length) {
		return rec, 0, frameShort
	}
	if length == recordPayloadSize {
		if recordRun(b[:recordFrameSize]) == 0 {
			return rec, 0, frameCorrupt
		}
		set, count := recordFields(b)
		return logstore.Record{Set: set, Count: count}, recordFrameSize, frameOK
	}
	payload := b[frameHeaderSize:ledgerFrameSize]
	if checksum(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return rec, 0, frameCorrupt
	}
	kind := logstore.Kind(payload[0])
	if !kind.Valid() {
		return rec, 0, frameCorrupt
	}
	stored := int64(binary.LittleEndian.Uint64(payload[9:17]))
	count := stored
	switch kind {
	case logstore.KindRevoke, logstore.KindExpire:
		// Debits store their effective (negative) count; a positive
		// stored count contradicts the kind byte.
		if stored >= 0 {
			return rec, 0, frameCorrupt
		}
		count = -stored
	default:
		if stored <= 0 {
			return rec, 0, frameCorrupt
		}
	}
	rec = logstore.Record{
		Kind:  kind,
		Set:   bitset.Mask(binary.LittleEndian.Uint64(payload[1:9])),
		Count: count,
		Meta:  logstore.Meta{Expiry: int64(binary.LittleEndian.Uint64(payload[17:25]))},
	}
	// A plain issue is always written as v1, so a v2 one is no frame this
	// format writes: refusing it keeps every record to one encoding.
	if rec.Validate() != nil || frameSize(rec) != ledgerFrameSize {
		return logstore.Record{}, 0, frameCorrupt
	}
	return rec, ledgerFrameSize, frameOK
}
