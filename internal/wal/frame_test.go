package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// referenceCastagnoli is the oracle's own CRC32C table, so the checks
// below share nothing with the code under test but the polynomial.
var referenceCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// referenceParseFrame is parseFrame written the obvious way, as the
// oracle for the parser and for recovery's v1 loop: the CRC through
// hash/crc32 whatever the version, the kind and sign and every record
// rule through logstore's Validate, and the one-encoding rule by asking
// what appendFrame would write.
func referenceParseFrame(b []byte) (logstore.Record, int, frameStatus) {
	if len(b) < frameHeaderSize {
		return logstore.Record{}, 0, frameShort
	}
	var size int
	switch binary.LittleEndian.Uint32(b[0:4]) {
	case recordPayloadSize:
		size = recordFrameSize
	case ledgerPayloadSize:
		size = ledgerFrameSize
	default:
		return logstore.Record{}, 0, frameCorrupt
	}
	if len(b) < size {
		return logstore.Record{}, 0, frameShort
	}
	payload := b[frameHeaderSize:size]
	if crc32.Checksum(payload, referenceCastagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return logstore.Record{}, 0, frameCorrupt
	}
	var rec logstore.Record
	if size == recordFrameSize {
		rec = logstore.Record{
			Set:   bitset.Mask(binary.LittleEndian.Uint64(payload[0:8])),
			Count: int64(binary.LittleEndian.Uint64(payload[8:16])),
		}
	} else {
		rec = logstore.Record{
			Kind:  logstore.Kind(payload[0]),
			Set:   bitset.Mask(binary.LittleEndian.Uint64(payload[1:9])),
			Count: int64(binary.LittleEndian.Uint64(payload[9:17])),
			Meta:  logstore.Meta{Expiry: int64(binary.LittleEndian.Uint64(payload[17:25]))},
		}
		if rec.Kind == logstore.KindRevoke || rec.Kind == logstore.KindExpire {
			rec.Count = -rec.Count // debits store their effective count
		}
	}
	if rec.Validate() != nil || int(frameSize(rec)) != size {
		return logstore.Record{}, 0, frameCorrupt
	}
	return rec, size, frameOK
}

// sealedRecordFrame returns a v1 frame holding set and count under a
// valid CRC, whatever the two values: the frame a checksum passes and
// only the record checks can refuse.
func sealedRecordFrame(set uint64, count int64) []byte {
	var fr [recordFrameSize]byte
	binary.LittleEndian.PutUint32(fr[0:4], recordPayloadSize)
	binary.LittleEndian.PutUint64(fr[8:16], set)
	binary.LittleEndian.PutUint64(fr[16:24], uint64(count))
	binary.LittleEndian.PutUint32(fr[4:8], crc32.Checksum(fr[frameHeaderSize:], referenceCastagnoli))
	return fr[:]
}

// TestFrameChecksum checks the v1 checksum against hash/crc32 on random
// payloads, on the all-zero and all-ones payloads, and on every payload
// with a single bit set: the last pins each table entry that a bit
// reaches on its own.
func TestFrameChecksum(t *testing.T) {
	check := func(p [recordPayloadSize]byte) {
		t.Helper()
		if got, want := recordChecksum(&p), crc32.Checksum(p[:], referenceCastagnoli); got != want {
			t.Fatalf("payload % x: recordChecksum = %#08x, crc32 = %#08x", p, got, want)
		}
	}
	var zeros, ones [recordPayloadSize]byte
	for i := range ones {
		ones[i] = 0xff
	}
	check(zeros)
	check(ones)
	for bit := range 8 * recordPayloadSize {
		var p [recordPayloadSize]byte
		p[bit/8] = 1 << (bit % 8)
		check(p)
	}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		var p [recordPayloadSize]byte
		rng.Read(p[:])
		check(p)
	}
}
