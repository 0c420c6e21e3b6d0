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

// castagnoli is the CRC32C table (the polynomial with hardware support
// on amd64/arm64, and the one storage formats conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC is slicing-by-16 for the one payload length nearly every
// frame has. A CRC over a fixed length is affine in the payload bytes:
// the CRC of the all-zero payload, xored with one entry per byte,
// byteAt[k][v] being what byte value v at offset k adds. It is held by
// pointer so that the lookups index the tables from one register
// rather than loading each table's address, one instruction fewer per
// lookup.
var recordCRC = newRecordCRC()

type recordCRCTable struct {
	zero   uint32
	byteAt [recordPayloadSize][256]uint32
}

func newRecordCRC() *recordCRCTable {
	t := new(recordCRCTable)
	// A byte at offset k passes through the register and then 15−k
	// zero bytes; each zero byte is one reflected table step.
	t.byteAt[recordPayloadSize-1] = *castagnoli
	for k := recordPayloadSize - 2; k >= 0; k-- {
		for v, c := range t.byteAt[k+1] {
			t.byteAt[k][v] = castagnoli[byte(c)] ^ c>>8
		}
	}
	// The initial register ^0 enters as 0xff in each of the first four
	// bytes, and the result is complemented.
	reg := uint32(0)
	for k := range 4 {
		reg ^= t.byteAt[k][0xff]
	}
	t.zero = ^reg
	return t
}

// recordChecksum returns the CRC32C (Castagnoli) of a v1 payload, as
// crc32.Checksum would, with no call chain and no length dispatch. The
// four partial sums let the lookups overlap.
func recordChecksum(p *[recordPayloadSize]byte) uint32 {
	t := &recordCRC.byteAt
	x0 := t[0][p[0]] ^ t[1][p[1]] ^ t[2][p[2]] ^ t[3][p[3]]
	x1 := t[4][p[4]] ^ t[5][p[5]] ^ t[6][p[6]] ^ t[7][p[7]]
	x2 := t[8][p[8]] ^ t[9][p[9]] ^ t[10][p[10]] ^ t[11][p[11]]
	x3 := t[12][p[12]] ^ t[13][p[13]] ^ t[14][p[14]] ^ t[15][p[15]]
	return recordCRC.zero ^ (x0 ^ x1) ^ (x2 ^ x3)
}

// decodeRecordFrame decodes f as a v1 frame: ok reports that its length
// prefix names the v1 payload, that the payload's CRC32C matches, and
// that it holds a non-empty set and a positive count, which is all
// Validate asks of a v1 record (kind issue, no expiry).
func decodeRecordFrame(f *[recordFrameSize]byte) (set bitset.Mask, count int64, ok bool) {
	p := (*[recordPayloadSize]byte)(f[frameHeaderSize:])
	set = bitset.Mask(binary.LittleEndian.Uint64(p[0:8]))
	count = int64(binary.LittleEndian.Uint64(p[8:16]))
	ok = binary.LittleEndian.Uint32(f[0:4]) == recordPayloadSize &&
		recordChecksum(p) == binary.LittleEndian.Uint32(f[4:8]) && set != 0 && count > 0
	return set, count, ok
}

// frameSize returns the encoded size of r's frame.
func frameSize(r logstore.Record) int64 {
	if r.Kind == logstore.KindIssue && r.Expiry == 0 {
		return recordFrameSize
	}
	return ledgerFrameSize
}

// appendFrame appends r's frame to buf and returns the extended slice.
func appendFrame(buf []byte, r logstore.Record) []byte {
	if r.Kind == logstore.KindIssue && r.Expiry == 0 {
		var payload [recordPayloadSize]byte
		binary.LittleEndian.PutUint64(payload[0:8], uint64(r.Set))
		binary.LittleEndian.PutUint64(payload[8:16], uint64(r.Count))
		buf = binary.LittleEndian.AppendUint32(buf, recordPayloadSize)
		buf = binary.LittleEndian.AppendUint32(buf, recordChecksum(&payload))
		return append(buf, payload[:]...)
	}
	stored := r.Effective()
	if r.Kind == logstore.KindTransfer {
		stored = r.Count
	}
	var payload [ledgerPayloadSize]byte
	payload[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(payload[1:9], uint64(r.Set))
	binary.LittleEndian.PutUint64(payload[9:17], uint64(stored))
	binary.LittleEndian.PutUint64(payload[17:25], uint64(r.Expiry))
	buf = binary.LittleEndian.AppendUint32(buf, ledgerPayloadSize)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload[:], castagnoli))
	return append(buf, payload[:]...)
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
		set, count, ok := decodeRecordFrame((*[recordFrameSize]byte)(b))
		if !ok {
			return rec, 0, frameCorrupt
		}
		return logstore.Record{Set: set, Count: count}, recordFrameSize, frameOK
	}
	payload := b[frameHeaderSize:ledgerFrameSize]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
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
