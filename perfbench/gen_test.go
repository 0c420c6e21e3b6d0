package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// small is a scaled-down ledger-shaped spec, with every request kind.
var small = spec{
	name: "small", groups: 5, priors: 2000,
	refRate: 200, ladder: []float64{400},
	mix: [3]int{8, 1, 1}, refusals: true,
	auditEvery: 500 * time.Millisecond, readRate: 20,
}

// inputBytes renders everything generate hands the program: the corpus
// document, each WAL file, and the request stream.
func inputBytes(t *testing.T, in *inputs) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	b, err := os.ReadFile(in.corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	out["corpus.json"] = b
	ents, err := os.ReadDir(in.walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(in.walDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["wal/"+e.Name()] = b
	}
	if out["stream"], err = json.Marshal(in.phases); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) map[string][]byte {
		in, err := generate(small, seed, 2, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return inputBytes(t, in)
	}
	a, b := gen(7), gen(7)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d input files vs %d", len(a), len(b))
	}
	for name, want := range a {
		if !bytes.Equal(b[name], want) {
			t.Errorf("same seed: %s differs", name)
		}
	}
	if c := gen(8); bytes.Equal(c["stream"], a["stream"]) {
		t.Error("different seeds generated the same request stream")
	}
}

// TestDesignedStatuses pins the stream's shape: the 8:1:1 write mix,
// a small designed share of 409 and 422 issuances, and audits and reads
// only in the reference phase.
func TestDesignedStatuses(t *testing.T) {
	in, err := generate(small, 3, 10, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	verbs, wants := map[string]int{}, map[int]int{}
	for _, ph := range in.phases {
		for _, r := range ph.Reqs {
			verbs[r.Verb]++
			wants[r.Want]++
			if !r.isWrite() && ph.Name != "reference" {
				t.Errorf("%s request in phase %s", r.Verb, ph.Name)
			}
		}
	}
	writes := verbs[verbIssue] + verbs[verbRevoke] + verbs[verbTransfer]
	if share := float64(verbs[verbIssue]) / float64(writes); share < 0.75 || share > 0.85 {
		t.Errorf("issue share %.3f of %d writes, want about 0.8", share, writes)
	}
	for _, st := range []int{409, 422} {
		if n := wants[st]; n == 0 || float64(n) > 0.03*float64(writes) {
			t.Errorf("%d requests designed to get %d, want a small share of %d writes", n, st, writes)
		}
	}
	if verbs[verbAudit] == 0 || verbs[verbRead] == 0 {
		t.Errorf("no audits or reads in %v", verbs)
	}
}
