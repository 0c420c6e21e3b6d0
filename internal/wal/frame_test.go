package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
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

// crcPath is one of the package's two run checks.
type crcPath struct {
	name string
	run  func([]byte) int
}

// crcPaths returns the paths this CPU can execute: the portable one, and
// the hardware one where the CPU has the CRC32 instruction.
func crcPaths() []crcPath {
	paths := []crcPath{{"portable", recordRunPortable}}
	if cpuHasCRC32C() {
		paths = append(paths, crcPath{"hardware", recordRunHW})
	}
	return paths
}

// portableCRC switches the package to its portable path until t ends.
func portableCRC(t *testing.T) {
	t.Helper()
	was := hasCRC32C
	hasCRC32C = false
	t.Cleanup(func() { hasCRC32C = was })
}

// TestFrameChecksum seals v1 payloads under hash/crc32's CRC32C and
// requires both run checks to take each frame exactly when its set is
// non-empty and its count positive, and to refuse it with one bit of
// its CRC flipped. The payloads are the all-zero and all-ones ones,
// every single-bit one, every one of one set bit and one count bit,
// the full set with the largest count, and random ones.
func TestFrameChecksum(t *testing.T) {
	flip := 0
	check := func(set uint64, count int64) {
		t.Helper()
		label := fmt.Sprintf("set %#x, count %d", set, count)
		fr := sealedRecordFrame(set, count)
		want := 0
		if set != 0 && count > 0 {
			want = 1
		}
		if got := checkRecordRun(t, label, fr); got != want {
			t.Fatalf("%s: the run checks take %d frames, want %d", label, got, want)
		}
		fr[4+flip/8] ^= 1 << (flip % 8)
		flip = (flip + 1) % 32
		if got := checkRecordRun(t, label+", CRC damaged", fr); got != 0 {
			t.Fatalf("%s, CRC damaged: the run checks take %d frames, want 0", label, got)
		}
	}
	check(0, 0)
	check(^uint64(0), -1)
	check(^uint64(0), math.MaxInt64)
	for bit := range 64 {
		check(1<<bit, 0)
		check(0, int64(1)<<bit)
	}
	for i := range 64 {
		for j := range 63 {
			check(1<<i, int64(1)<<j)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 20_000 {
		check(rng.Uint64(), rng.Int63())
	}
}

// checkRecordRun requires both run checks to take from b exactly the
// frames referenceParseFrame accepts as v1, one after another from the
// start, and returns how many that is.
func checkRecordRun(t *testing.T, label string, b []byte) int {
	t.Helper()
	want := 0
	for off := 0; len(b)-off >= recordFrameSize; off += recordFrameSize {
		if _, n, status := referenceParseFrame(b[off:]); status != frameOK || n != recordFrameSize {
			break
		}
		want++
	}
	for _, path := range crcPaths() {
		if got := path.run(b); got != want {
			t.Fatalf("%s: %s run check takes %d frames, reference %d", label, path.name, got, want)
		}
	}
	return want
}

// TestRecordRunStopsAtDamage damages a run of valid v1 frames one byte
// at a time, three ways per byte, and plants at each frame in turn a
// frame that only the record checks refuse and a v2 frame: both run
// checks must take exactly the frames before the damaged one. Every cut
// of the run must yield its whole frames.
func TestRecordRunStopsAtDamage(t *testing.T) {
	const frames = 6
	rng := rand.New(rand.NewSource(3))
	var run []byte
	for range frames {
		run = append(run, sealedRecordFrame(rng.Uint64()|1, 1+rng.Int63n(1<<62))...)
	}
	check := func(label string, b []byte, want int) {
		t.Helper()
		if got := checkRecordRun(t, label, b); got != want {
			t.Fatalf("%s: the run checks take %d frames, want %d", label, got, want)
		}
	}
	for cut := range len(run) + 1 {
		check(fmt.Sprintf("cut at %d", cut), run[:cut], cut/recordFrameSize)
	}
	for i := range run {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := slices.Clone(run)
			bad[i] ^= mask
			check(fmt.Sprintf("byte %d ^ %#02x", i, mask), bad, i/recordFrameSize)
		}
	}
	planted := [][]byte{
		sealedRecordFrame(0, 5), sealedRecordFrame(3, 0), sealedRecordFrame(3, -5),
		appendFrame(nil, logstore.Record{Set: 3, Count: 5, Meta: logstore.Meta{Expiry: 9000}}),
	}
	for k := range frames {
		for _, fr := range planted {
			bad := append(slices.Clone(run[:k*recordFrameSize]), fr...)
			bad = append(bad, run[(k+1)*recordFrameSize:]...)
			check(fmt.Sprintf("frame %d is % x", k, fr), bad, k)
		}
	}
}
