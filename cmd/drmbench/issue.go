package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/bitset"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/slo"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// issueRow is one point of the online-admission ablation: the same
// issuance stream decided by the full validation walk (live tree +
// superset enumeration per op, the pre-cache hot path) versus the
// headroom cache (a push on the group's kept maximum flow, then the
// count kept).
type issueRow struct {
	// Priors is how many records the issuance log already holds when the
	// measured stream starts; DistinctSets is its observed-set frontier.
	Priors       int `json:"priors"`
	DistinctSets int `json:"distinct_sets"`
	// FullBuildNS / CacheBuildNS are the one-time warm-up costs: replaying
	// the priors into a validation tree vs into the headroom cache.
	FullBuildNS  int64 `json:"full_build_ns"`
	CacheBuildNS int64 `json:"cache_build_ns"`
	// FullOpsSec / CachedOpsSec are sustained issuance throughputs;
	// the P50/P99 columns are per-op latency quantiles in nanoseconds.
	FullOpsSec   float64 `json:"full_ops_per_sec"`
	CachedOpsSec float64 `json:"cached_ops_per_sec"`
	FullP50NS    int64   `json:"full_p50_ns"`
	FullP99NS    int64   `json:"full_p99_ns"`
	CachedP50NS  int64   `json:"cached_p50_ns"`
	CachedP99NS  int64   `json:"cached_p99_ns"`
	// WindowP50NS / WindowP99NS are the cached-arm quantiles as the
	// serving-side sliding-window histogram reports them (bucket upper
	// bounds) — the same estimator /v1/status serves, so the exact
	// sorted-sample columns double as its ground truth.
	WindowP50NS int64 `json:"window_p50_ns"`
	WindowP99NS int64 `json:"window_p99_ns"`
	// Speedup is CachedOpsSec / FullOpsSec.
	Speedup float64 `json:"speedup"`
}

// issueWorkload builds the shared fixture for one ablation point: a
// corpus, a prior log of about `priors` records, the measured op stream,
// and budgets topped up far enough that every measured admission is an
// accept — the expensive path (check + apply + append) on both arms.
type issueFixture struct {
	n        int
	corpus   *license.Corpus
	grouping overlap.Grouping
	priors   []logstore.Record
	sets     []bitset.Mask
}

func newIssueFixture(priors, ops int, seed int64) (*issueFixture, error) {
	const n = 16
	per := priors / n
	if per < 1 {
		per = 1
	}
	cfg := workload.Config{N: n, Groups: 3, Dims: 4, RecordsPerLicense: per, Seed: seed}
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	seen := map[bitset.Mask]bool{}
	var sets []bitset.Mask
	var total int64
	for _, r := range w.Records {
		total += r.Count
		if !seen[r.Set] {
			seen[r.Set] = true
			sets = append(sets, r.Set)
		}
	}
	// Headroom must stay positive through priors plus the measured stream
	// on every equation, so both arms measure accepts only.
	boost := total + int64(ops)*int64(maxIssueCount) + 1
	for i := 0; i < w.Corpus.Len(); i++ {
		if err := w.Corpus.TopUp(i, boost); err != nil {
			return nil, err
		}
	}
	return &issueFixture{
		n:        n,
		corpus:   w.Corpus,
		grouping: overlap.GroupsOf(w.Corpus),
		priors:   w.Records,
		sets:     sets,
	}, nil
}

// maxIssueCount bounds the per-op issued count (cycled 1..maxIssueCount).
const maxIssueCount = 5

func (f *issueFixture) priorLog() (*logstore.Mem, error) {
	log := logstore.NewMem(len(f.priors))
	for _, r := range f.priors {
		if err := log.Append(r); err != nil {
			return nil, err
		}
	}
	return log, nil
}

func (f *issueFixture) op(i int) (bitset.Mask, int64) {
	return f.sets[i%len(f.sets)], int64(1 + i%maxIssueCount)
}

func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// benchIssueFull measures the pre-cache hot path: one live validation
// tree built from the priors, then per op a full superset headroom walk
// (2^(N−|B|) equations), a tree insert, and a log append.
func benchIssueFull(f *issueFixture, ops int) (build time.Duration, lat []time.Duration, err error) {
	log, err := f.priorLog()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	tree, err := vtree.Build(f.n, log)
	if err != nil {
		return 0, nil, err
	}
	build = time.Since(start)
	aggs := f.corpus.Aggregates()
	lat = make([]time.Duration, ops)
	for i := 0; i < ops; i++ {
		set, count := f.op(i)
		o := time.Now()
		room, err := tree.Headroom(set, aggs)
		if err != nil {
			return 0, nil, err
		}
		if count > room {
			return 0, nil, fmt.Errorf("issue bench: unexpected rejection at op %d (room %d)", i, room)
		}
		if err := tree.Insert(set, count); err != nil {
			return 0, nil, err
		}
		if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
			return 0, nil, err
		}
		lat[i] = time.Since(o)
	}
	return build, lat, nil
}

// benchIssueCached measures the cached path: warm the headroom cache
// from the priors, then per op Admit (push + keep the count) and append.
func benchIssueCached(f *issueFixture, ops int) (build time.Duration, lat []time.Duration, err error) {
	log, err := f.priorLog()
	if err != nil {
		return 0, nil, err
	}
	ctx := context.Background()
	start := time.Now()
	cache, err := headroom.Build(ctx, f.grouping, f.corpus.Aggregates(), log)
	if err != nil {
		return 0, nil, err
	}
	build = time.Since(start)
	lat = make([]time.Duration, ops)
	for i := 0; i < ops; i++ {
		set, count := f.op(i)
		o := time.Now()
		room, ok, err := cache.Admit(ctx, set, count)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, fmt.Errorf("issue bench: unexpected rejection at op %d (room %d)", i, room)
		}
		if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
			return 0, nil, err
		}
		lat[i] = time.Since(o)
	}
	return build, lat, nil
}

func opsPerSec(lat []time.Duration) float64 {
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	if total <= 0 {
		return 0
	}
	return float64(len(lat)) / total.Seconds()
}

// benchIssueOne runs both arms at one prior-log size. The full arm walks
// exponentially many equations per op, so it gets a smaller sample; both
// arms report sustained ops/sec, which stays comparable.
func benchIssueOne(priors, ops int, seed int64) (issueRow, error) {
	fullOps := ops
	if fullOps > 200 {
		fullOps = 200
	}
	f, err := newIssueFixture(priors, ops, seed)
	if err != nil {
		return issueRow{}, err
	}
	fullBuild, fullLat, err := benchIssueFull(f, fullOps)
	if err != nil {
		return issueRow{}, err
	}
	cacheBuild, cachedLat, err := benchIssueCached(f, ops)
	if err != nil {
		return issueRow{}, err
	}
	// Feed the cached-arm latencies through the serving-side sliding
	// window so the artifact carries both estimators side by side.
	win := slo.NewLatencyWindow(slo.WindowConfig{})
	for _, d := range cachedLat {
		win.Observe(d.Seconds(), false)
	}
	snap := win.Snapshot()
	winQ := func(q float64) int64 {
		v := snap.Quantile(q)
		if math.IsInf(v, +1) && len(snap.Upper) > 0 {
			v = snap.Upper[len(snap.Upper)-1]
		}
		return int64(v * 1e9)
	}
	row := issueRow{
		Priors:       len(f.priors),
		DistinctSets: len(f.sets),
		FullBuildNS:  fullBuild.Nanoseconds(),
		CacheBuildNS: cacheBuild.Nanoseconds(),
		FullOpsSec:   opsPerSec(fullLat),
		CachedOpsSec: opsPerSec(cachedLat),
		FullP50NS:    quantile(fullLat, 0.50).Nanoseconds(),
		FullP99NS:    quantile(fullLat, 0.99).Nanoseconds(),
		CachedP50NS:  quantile(cachedLat, 0.50).Nanoseconds(),
		CachedP99NS:  quantile(cachedLat, 0.99).Nanoseconds(),
		WindowP50NS:  winQ(0.50),
		WindowP99NS:  winQ(0.99),
	}
	if row.FullOpsSec > 0 {
		row.Speedup = row.CachedOpsSec / row.FullOpsSec
	}
	return row, nil
}

// benchIssue sweeps prior-log decades from 10^4 up to maxPriors.
func benchIssue(maxPriors, ops int, seed int64) ([]issueRow, error) {
	var rows []issueRow
	for p := 10_000; p <= maxPriors; p *= 10 {
		row, err := benchIssueOne(p, ops, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 { // maxPriors below the first decade: one point
		row, err := benchIssueOne(maxPriors, ops, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func writeIssue(out io.Writer, rows []issueRow) error {
	tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "priors\tsets\tfull_ops/s\tcached_ops/s\tfull_p50\tfull_p99\tcached_p50\tcached_p99\tspeedup\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.0f\t%v\t%v\t%v\t%v\t%.0fx\t\n",
			r.Priors, r.DistinctSets, r.FullOpsSec, r.CachedOpsSec,
			time.Duration(r.FullP50NS).Round(time.Microsecond),
			time.Duration(r.FullP99NS).Round(time.Microsecond),
			time.Duration(r.CachedP50NS).Round(100*time.Nanosecond),
			time.Duration(r.CachedP99NS).Round(100*time.Nanosecond),
			r.Speedup)
	}
	return tw.Flush()
}

func writeIssueCSV(out io.Writer, rows []issueRow) error {
	if _, err := fmt.Fprintln(out, "priors,distinct_sets,full_build_ns,cache_build_ns,full_ops_per_sec,cached_ops_per_sec,full_p50_ns,full_p99_ns,cached_p50_ns,cached_p99_ns,window_p50_ns,window_p99_ns,speedup"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(out, "%d,%d,%d,%d,%.1f,%.1f,%d,%d,%d,%d,%d,%d,%.2f\n",
			r.Priors, r.DistinctSets, r.FullBuildNS, r.CacheBuildNS,
			r.FullOpsSec, r.CachedOpsSec, r.FullP50NS, r.FullP99NS,
			r.CachedP50NS, r.CachedP99NS, r.WindowP50NS, r.WindowP99NS, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}

// issueMeta pins the run parameters inside the artifact so two BENCH
// records are comparable without the CI log that produced them.
type issueMeta struct {
	Seed      int64  `json:"seed"`
	Ops       int    `json:"ops"`
	GoVersion string `json:"go_version"`
}

// writeIssueJSON writes the ablation rows as a stable JSON artifact
// (the BENCH_issue.json record CI uploads): a schema tag, the run
// parameters, and one row per prior-log decade.
func writeIssueJSON(path string, rows []issueRow, meta issueMeta) error {
	meta.GoVersion = runtime.Version()
	doc := struct {
		Bench  string     `json:"bench"`
		Schema string     `json:"schema"`
		Meta   issueMeta  `json:"meta"`
		Rows   []issueRow `json:"rows"`
	}{Bench: "issue_ablation", Schema: "drmbench/issue/v2", Meta: meta, Rows: rows}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
