package logstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drmerr"
)

// writeLog writes a JSONL log with the given lines (no trailing newline
// handling — lines carry their own).
func writeLog(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "issue.log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const threeRecords = "{\"set\":3,\"count\":800}\n{\"set\":2,\"count\":400}\n{\"set\":5,\"count\":100}\n"

// readLocated reads a JSONL log through ReadFile and checks the error
// contract a hand repair relies on: a failed replay is a typed
// *CorruptError whose Records counts the records delivered before it,
// and truncating the log at its Offset leaves a clean log of exactly
// those records. It returns the records delivered and the error.
func readLocated(t *testing.T, data []byte) ([]Record, *CorruptError) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var records []Record
	err := ReadFile(path, func(r Record) error {
		records = append(records, r)
		return nil
	})
	for _, r := range records {
		if r.Validate() != nil {
			t.Fatalf("ReadFile delivered invalid record %+v", r)
		}
	}
	if err == nil {
		return records, nil
	}
	var cerr *CorruptError
	if !errors.Is(err, drmerr.ErrStoreCorrupt) || !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want typed *CorruptError", err)
	}
	if cerr.Records != len(records) {
		t.Fatalf("Records = %d, but %d records were delivered", cerr.Records, len(records))
	}
	if cerr.Offset < 0 || cerr.Offset > int64(len(data)) {
		t.Fatalf("Offset %d outside the %d-byte log", cerr.Offset, len(data))
	}
	n := 0
	if err := Read(bytes.NewReader(data[:cerr.Offset]), func(Record) error { n++; return nil }); err != nil || n != cerr.Records {
		t.Fatalf("log cut at Offset %d: %d records, err %v; want %d, nil", cerr.Offset, n, err, cerr.Records)
	}
	return records, cerr
}

func TestReadFileTornTail(t *testing.T) {
	// A crashed append leaves a half-written line at the end.
	path := writeLog(t, threeRecords+"{\"set\":7,\"cou")
	err := ReadFile(path, func(Record) error { return nil })
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("err = %v, want store corrupt", err)
	}
	_, cerr := readLocated(t, []byte(threeRecords+"{\"set\":7,\"cou"))
	if cerr == nil {
		t.Fatal("torn tail read cleanly")
	}
	// The decoder's offset stops just past the last valid JSON value,
	// before its trailing newline.
	if cerr.Offset != int64(len(threeRecords)-1) {
		t.Errorf("Offset = %d, want %d", cerr.Offset, len(threeRecords)-1)
	}
	if cerr.Records != 3 {
		t.Errorf("Records = %d, want 3", cerr.Records)
	}
	if msg := err.Error(); !strings.Contains(msg, "byte offset") || !strings.Contains(msg, path) {
		t.Errorf("error does not name the file and byte offset: %v", err)
	}
}

// TestReadFileTruncatedAtEveryOffset cuts a valid log at every byte
// offset: each cut either reads a prefix of the records or fails with a
// located error whose Offset truncation reads cleanly.
func TestReadFileTruncatedAtEveryOffset(t *testing.T) {
	full := []byte(threeRecords + "{\"set\":6,\"count\":123}\n")
	for cut := 0; cut <= len(full); cut++ {
		records, _ := readLocated(t, full[:cut])
		if len(records) > 4 {
			t.Fatalf("cut %d: invented records: %d", cut, len(records))
		}
	}
}

// FuzzReadFile feeds arbitrary file contents — truncated logs, garbage,
// blank lines — to the file-level reader: it must never panic, every
// record it delivers must be valid, and a failure must locate the bad
// record exactly (see readLocated).
func FuzzReadFile(f *testing.F) {
	f.Add([]byte(threeRecords))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(threeRecords + "{\"set\":7,\"cou"))
	f.Add([]byte("{\"set\":3,\"count\":800}\n???\n{\"set\":2,\"count\":400}\n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte("{\"set\":0,\"count\":0}\n"))
	f.Add([]byte("{\"set\":1,\"count\":1}")) // no trailing newline: still one record
	f.Fuzz(func(t *testing.T, data []byte) {
		readLocated(t, data)
	})
}
