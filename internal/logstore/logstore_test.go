package logstore

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestRecordValidate(t *testing.T) {
	if err := (Record{Set: bitset.MaskOf(0), Count: 5}).Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := (Record{Set: 0, Count: 5}).Validate(); err == nil {
		t.Error("empty set accepted")
	}
	if err := (Record{Set: bitset.MaskOf(0), Count: 0}).Validate(); err == nil {
		t.Error("zero count accepted")
	}
	if err := (Record{Set: bitset.MaskOf(0), Count: -3}).Validate(); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMemAppendAndReplay(t *testing.T) {
	m := NewMem(4)
	recs := []Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},
		{Set: bitset.MaskOf(1), Count: 400},
	}
	for _, r := range recs {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	got, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if got[i] != r {
			t.Errorf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
	if err := m.Append(Record{}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestMemForEachStopsOnError(t *testing.T) {
	m := NewMem(0)
	for i := 0; i < 5; i++ {
		if err := m.Append(Record{Set: bitset.MaskOf(i), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := os.ErrClosed
	n := 0
	err := m.ForEach(func(Record) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 3 {
		t.Errorf("ForEach stopped after %d with %v", n, err)
	}
}

func TestCompact(t *testing.T) {
	in := []Record{
		{Set: bitset.MaskOf(0, 1), Count: 800},
		{Set: bitset.MaskOf(1), Count: 400},
		{Set: bitset.MaskOf(0, 1), Count: 40},
	}
	out := Compact(in)
	if len(out) != 2 {
		t.Fatalf("Compact len = %d, want 2", len(out))
	}
	// Ordered by mask: {2}=0b10 < {1,2}=0b11.
	if out[0].Set != bitset.MaskOf(1) || out[0].Count != 400 {
		t.Errorf("out[0] = %+v", out[0])
	}
	if out[1].Set != bitset.MaskOf(0, 1) || out[1].Count != 840 {
		t.Errorf("out[1] = %+v", out[1])
	}
}

func TestCompactPreservesTotalQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in []Record
		var total int64
		for i := 0; i < r.Intn(50); i++ {
			c := int64(1 + r.Intn(100))
			in = append(in, Record{Set: bitset.Mask(1 + r.Intn(255)), Count: c})
			total += c
		}
		var got int64
		for _, rec := range Compact(in) {
			got += rec.Count
		}
		return got == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	err := Read(bytes.NewBufferString("{\"set\":3,\"count\":5}\nnot json\n"),
		func(Record) error { return nil })
	if err == nil {
		t.Error("corrupt log accepted")
	}
	// Structurally invalid records are also rejected.
	err = Read(bytes.NewBufferString("{\"set\":0,\"count\":5}\n"),
		func(Record) error { return nil })
	if err == nil {
		t.Error("empty-set record accepted")
	}
}

func TestWriteAllThenRead(t *testing.T) {
	recs := []Record{
		{Set: bitset.MaskOf(0), Count: 1},
		{Set: bitset.MaskOf(0, 2), Count: 7},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := Read(&buf, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("round-trip = %+v", got)
	}
}

func TestWriteAllRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{{Set: 0, Count: 1}}); err == nil {
		t.Error("invalid record written")
	}
}
