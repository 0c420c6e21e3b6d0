package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

// corpusN is the paper's largest §5 corpus size; every workload uses it.
const corpusN = 35

// corpusSeed fixes the license rectangles and budgets: each workload
// runs over one corpus instance of its shape, and --seed varies the
// priors and the request stream. Random corpora of the same shape differ
// up to 2x in audit cost (the overlap geometry sets how many distinct
// belongs-to sets the priors produce), which would make every
// audit-bound number a function of the seed rather than of the code.
const corpusSeed = 1

// overBudget is the count of a designed over-budget issuance: far above
// any topped-up aggregate, so the admission check refuses it (409) in
// any arrival order.
const overBudget = int64(1) << 40

// Request verbs. Writes carry a JSON body; audit and read are GETs.
const (
	verbIssue    = "issue"
	verbRevoke   = "revoke"
	verbTransfer = "transfer"
	verbAudit    = "audit"
	verbRead     = "read"
)

// request is one generated request: when it is due, what it is, and the
// HTTP status the server must answer.
type request struct {
	At   time.Duration   `json:"at_ns"`
	Verb string          `json:"verb"`
	Body json.RawMessage `json:"body,omitempty"`
	Want int             `json:"want"`
}

func (r request) isWrite() bool {
	return r.Verb == verbIssue || r.Verb == verbRevoke || r.Verb == verbTransfer
}

// path is the request's endpoint on a single-corpus drmserver.
func (r request) path() string {
	switch r.Verb {
	case verbAudit:
		return "/v1/audit"
	case verbRead:
		return "/v1/headroom"
	}
	return "/v1/" + r.Verb
}

// phase is one stretch of the open-loop schedule at a fixed write rate.
type phase struct {
	Name     string        `json:"name"`
	Rate     float64       `json:"rate"`
	Duration time.Duration `json:"duration_ns"`
	Reqs     []request     `json:"requests"`
}

// rung reports whether the phase is a write_max_rps ladder rung.
func (p phase) rung() bool { return strings.HasPrefix(p.Name, "rung") }

// spec fixes one workload's shape. Rates are writes per second.
type spec struct {
	name   string
	groups int // planted overlap groups over corpusN licenses
	priors int // prior records in the WAL
	// refRate is the reference write rate; ladder lists the write_max_rps
	// rungs (empty: no ladder).
	refRate float64
	ladder  []float64
	// mix weighs issue:revoke:transfer; refusals adds the designed 409
	// (over-budget) and 422 (instance-invalid) issuances.
	mix      [3]int
	refusals bool
	// auditEvery is the GET /v1/audit period; readRate the GET
	// /v1/headroom rate through the router.
	auditEvery time.Duration
	readRate   float64
	routed     bool
}

// Designed refusal shares, in per mille of issuances.
const (
	overBudgetPerMille = 10
	invalidPerMille    = 10
)

// inputs is everything a run hands the program: the corpus document, a
// WAL directory of priors, and the tagged request stream.
type inputs struct {
	corpusPath string
	walDir     string
	priors     int
	phases     []phase
}

// target is a prior record a revoke or transfer debits: its rectangle
// resolves to the prior's belongs-to set, and the debit stays within its
// count, so each debit is sound whatever order requests arrive in.
type target struct {
	rect  geometry.Rect
	count int64
}

// plan decides the phases a run needs for the measured seconds: a
// warm-up, the reference phase, the ladder rungs, and (routed, traced
// runs) a shorter direct-to-leader pass at the reference rate.
func (s spec) plan(seconds int, traced bool) []phase {
	total := time.Duration(seconds) * time.Second
	ref := total
	if len(s.ladder) > 0 {
		ref = total * 3 / 5
	}
	// A second of warm-up at the reference rate opens connections and
	// lets the servers' start-up garbage go before anything is timed.
	ph := []phase{
		{Name: "warmup", Rate: s.refRate, Duration: time.Second},
		{Name: "reference", Rate: s.refRate, Duration: ref},
	}
	for i, r := range s.ladder {
		rung := (total - ref) / time.Duration(len(s.ladder))
		ph = append(ph, phase{Name: fmt.Sprintf("rung%d", i+1), Rate: r, Duration: rung})
	}
	if s.routed && traced {
		ph = append(ph, phase{Name: "direct", Rate: s.refRate, Duration: ref / 3})
	}
	return ph
}

// generate writes a workload's inputs under dir from seed. The same
// (spec, seed, seconds, traced) always yields byte-identical files and
// the same stream.
func generate(s spec, seed int64, seconds int, traced bool, dir string) (*inputs, error) {
	w, err := workload.Generate(workload.Config{
		N: corpusN, Groups: s.groups, Dims: 4, RecordsPerLicense: 1, Seed: corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	corpus := w.Corpus
	priorRng := rand.New(rand.NewSource(seed*104729 + 1))

	// Verbs first, so the number of debits (and thus targets) is known
	// before the priors are drawn. Each phase draws from its own stream,
	// so adding a phase leaves the other phases' requests unchanged.
	phases := s.plan(seconds, traced)
	rngs := make([]*rand.Rand, len(phases))
	verbs := make([][]string, len(phases))
	debits := 0
	weights := s.mix[0] + s.mix[1] + s.mix[2]
	for i, ph := range phases {
		rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i+2)))
		n := int(ph.Rate * ph.Duration.Seconds())
		verbs[i] = make([]string, n)
		for k := range verbs[i] {
			switch r := rngs[i].Intn(weights); {
			case r < s.mix[0]:
				verbs[i][k] = verbIssue
			case r < s.mix[0]+s.mix[1]:
				verbs[i][k] = verbRevoke
				debits++
			default:
				verbs[i][k] = verbTransfer
				debits++
			}
		}
	}
	if debits > s.priors {
		return nil, fmt.Errorf("workload %s: %d debits need as many priors, have %d", s.name, debits, s.priors)
	}

	// Priors: usage rectangles drawn inside uniformly chosen licenses,
	// counts uniform in [10, 30] (§5). The debit targets are a seeded
	// sample of them.
	targetOf := make(map[int]int, debits)
	for k, idx := range priorRng.Perm(s.priors)[:debits] {
		targetOf[idx] = k
	}
	targets := make([]target, debits)
	walDir := filepath.Join(dir, "priors")
	store, err := wal.Open(walDir, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	var priorCount int64
	batch := make([]logstore.Record, 0, 1<<16)
	for i := 0; i < s.priors; i++ {
		rect := usageRect(priorRng, corpus.License(priorRng.Intn(corpusN)).Rect)
		count := 10 + priorRng.Int63n(21)
		if k, ok := targetOf[i]; ok {
			targets[k] = target{rect: rect, count: count}
		}
		batch = append(batch, logstore.Record{Set: belongsTo(corpus, rect), Count: count})
		priorCount += count
		if len(batch) == cap(batch) || i == s.priors-1 {
			if err := store.AppendBatch(batch); err != nil {
				store.Close()
				return nil, err
			}
			batch = batch[:0]
		}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	// Request bodies.
	invalid := invalidRect(corpus)
	var issued int64
	next := 0
	for i := range phases {
		ph, rng := &phases[i], rngs[i]
		gap := time.Duration(float64(time.Second) / ph.Rate)
		for k, verb := range verbs[i] {
			req := request{At: time.Duration(k) * gap, Verb: verb, Want: http.StatusOK}
			var rect geometry.Rect
			var count int64
			switch verb {
			case verbIssue:
				rect = usageRect(rng, corpus.License(rng.Intn(corpusN)).Rect)
				count = 10 + rng.Int63n(21)
				if s.refusals {
					switch r := rng.Intn(1000); {
					case r < overBudgetPerMille:
						count, req.Want = overBudget, http.StatusConflict
					case r < overBudgetPerMille+invalidPerMille:
						rect, req.Want = invalid, http.StatusUnprocessableEntity
					}
				}
				if req.Want == http.StatusOK {
					issued += count
				}
			default:
				t := targets[next]
				next++
				rect, count = t.rect, 1+rng.Int63n(t.count)
			}
			if req.Body, err = json.Marshal(writeBody{Values: valueDocs(rect), Count: count}); err != nil {
				return nil, err
			}
			ph.Reqs = append(ph.Reqs, req)
		}
		ph.Reqs = mergeGets(ph, s)
	}

	// Budgets: §5's aggregates are below what paper-density priors
	// issue, so every license is topped up past everything the priors
	// and the stream's valid issuances can ever debit; the priors then
	// audit clean and only the designed requests are refused.
	boost := priorCount + issued + 1
	for i := 0; i < corpus.Len(); i++ {
		if err := corpus.TopUp(i, boost); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := license.EncodeCorpus(&buf, corpus); err != nil {
		return nil, err
	}
	corpusPath := filepath.Join(dir, "corpus.json")
	if err := os.WriteFile(corpusPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &inputs{corpusPath: corpusPath, walDir: walDir, priors: s.priors, phases: phases}, nil
}

// mergeGets interleaves the phase's audits and reads into its write
// schedule, in due-time order. Only the reference phase carries them.
func mergeGets(ph *phase, s spec) []request {
	if ph.Name != "reference" {
		return ph.Reqs
	}
	var gets []request
	if s.auditEvery > 0 {
		for at := s.auditEvery / 2; at < ph.Duration; at += s.auditEvery {
			gets = append(gets, request{At: at, Verb: verbAudit, Want: http.StatusOK})
		}
	}
	if s.readRate > 0 {
		gap := time.Duration(float64(time.Second) / s.readRate)
		for at := gap / 2; at < ph.Duration; at += gap {
			gets = append(gets, request{At: at, Verb: verbRead, Want: http.StatusOK})
		}
	}
	out := make([]request, 0, len(ph.Reqs)+len(gets))
	i, j := 0, 0
	for i < len(ph.Reqs) || j < len(gets) {
		if j == len(gets) || (i < len(ph.Reqs) && ph.Reqs[i].At <= gets[j].At) {
			out = append(out, ph.Reqs[i])
			i++
		} else {
			out = append(out, gets[j])
			j++
		}
	}
	return out
}

// writeBody is the issue/revoke/transfer request body drmserver decodes.
type writeBody struct {
	Values []license.ValueDoc `json:"values"`
	Count  int64              `json:"count"`
}

func valueDocs(r geometry.Rect) []license.ValueDoc {
	docs := make([]license.ValueDoc, r.Schema().Dims())
	for d := range docs {
		iv := r.Value(d).Interval()
		lo, hi := iv.Lo, iv.Hi
		docs[d] = license.ValueDoc{Lo: &lo, Hi: &hi}
	}
	return docs
}

// usageRect samples a sub-rectangle of r, so it lies inside the license
// r belongs to (and possibly others overlapping it).
func usageRect(rng *rand.Rand, r geometry.Rect) geometry.Rect {
	vals := make([]geometry.Value, r.Schema().Dims())
	for d := range vals {
		iv := r.Value(d).Interval()
		lo := iv.Lo + rng.Int63n(iv.Hi-iv.Lo+1)
		hi := lo + rng.Int63n(iv.Hi-lo+1)
		vals[d] = geometry.IntervalValue(interval.New(lo, hi))
	}
	return geometry.MustRect(r.Schema(), vals...)
}

// invalidRect lies past every license on axis 0, so no license contains
// it and instance validation refuses it (422).
func invalidRect(c *license.Corpus) geometry.Rect {
	var top int64
	for _, l := range c.Licenses() {
		top = max(top, l.Rect.Value(0).Interval().Hi)
	}
	vals := make([]geometry.Value, c.Schema().Dims())
	for d := range vals {
		vals[d] = geometry.IntervalValue(interval.New(top+1, top+1))
	}
	return geometry.MustRect(c.Schema(), vals...)
}

func belongsTo(c *license.Corpus, r geometry.Rect) (set bitset.Mask) {
	for _, j := range c.BelongsTo(r) {
		set = set.With(j)
	}
	return set
}
