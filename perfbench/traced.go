package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Traced-run bounds: enough ops for stable medians, few enough that the
// replay (every write pays an fsync) stays short.
const (
	tracedWrites = 3000
	tracedAudits = 7
)

// parentKey carries the benchmark's own span context through a program
// call. The program's own tracing looks for its span under a different
// key, so its internal spans stay off: every span in the trace is one
// the benchmark recorded around a public entry point.
type parentKey struct{}

// timedStore wraps the WAL handed to engine.NewDistributor so each
// append (ledger check, frame write, fsync) gets a wal.append span
// under the engine call that made it.
type timedStore struct {
	*wal.Store
}

func (s timedStore) AppendContext(ctx context.Context, r logstore.Record) error {
	if p, ok := ctx.Value(parentKey{}).(context.Context); ok {
		_, sp := trace.Start(p, "wal.append")
		defer sp.End()
	}
	return s.Store.AppendContext(ctx, r)
}

// replayer holds the traced run's state: the same engine drmserver's
// buildDistributor assembles, plus a shadow headroom cache built over
// the same priors that mirrors every decided write.
type replayer struct {
	ctx    context.Context
	tr     *trace.Tracer
	dist   *engine.Distributor
	store  *wal.Store
	shadow *headroom.Cache
	schema *geometry.Schema
	eqs    int64
}

// tracedRun replays the workload's reference stream in one process,
// with a root span per op and a child span around each public call,
// and fills res.layers from the spans.
func tracedRun(ctx context.Context, s spec, in *inputs, seed int64, dir, traceOut string, res *result, httpP50 time.Duration) error {
	walDir := filepath.Join(dir, "traced-wal")
	if err := copyDir(in.walDir, walDir); err != nil {
		return err
	}
	cf, err := os.Open(in.corpusPath)
	if err != nil {
		return err
	}
	corpus, err := license.DecodeCorpus(cf)
	cf.Close()
	if err != nil {
		return err
	}

	start := time.Now()
	ws, err := wal.Open(walDir, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	defer ws.Close()
	res.layers["wal.recover_ms"] = ms(time.Since(start))
	bytes0, len0 := segmentBytes(walDir), ws.Len()

	d := engine.NewDistributor("perfbench", corpus.Schema(), engine.ModeOnline, timedStore{ws})
	for _, l := range corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			return err
		}
	}
	if err := d.WarmHeadroom(ctx); err != nil {
		return err
	}
	start = time.Now()
	shadow, err := headroom.Build(ctx, overlap.GroupsOf(corpus), corpus.Aggregates(), ws)
	if err != nil {
		return err
	}
	res.layers["headroom.build_ms"] = ms(time.Since(start))

	var ref phase
	for _, ph := range in.phases {
		if ph.Name == "reference" {
			ref = ph
		}
	}
	var ops []request
	writes, audits := 0, 0
	for _, r := range ref.Reqs {
		if writes == tracedWrites {
			break
		}
		switch {
		case r.isWrite():
			writes++
		case r.Verb == verbAudit:
			if audits == tracedAudits {
				continue
			}
			audits++
		}
		ops = append(ops, r)
	}
	for ; audits < tracedAudits; audits++ {
		ops = append(ops, request{Verb: verbAudit, Want: http.StatusOK})
	}

	rp := &replayer{
		ctx:    ctx,
		tr:     trace.New(trace.Options{Capacity: 2*len(ops) + 64}), // zero policy retains every trace
		dist:   d,
		store:  ws,
		shadow: shadow,
		schema: corpus.Schema(),
	}
	for i, r := range ops {
		if err := rp.op(i, r); err != nil {
			res.fail("traced op %d (%s): %v", i, r.Verb, err)
			return nil
		}
	}
	res.layers["wal.bytes_per_op"] = float64(segmentBytes(walDir)-bytes0) / float64(max(ws.Len()-len0, 1))
	res.layers["core.equations"] = float64(rp.eqs)

	traces := rp.tr.Snapshot()
	if len(traces) != len(ops) || rp.tr.Evictions() != 0 {
		return fmt.Errorf("trace ring kept %d of %d ops", len(traces), len(ops))
	}
	if err := layerTimes(traces, res, httpP50); err != nil {
		res.fail("traced run: %v", err)
	}
	if err := os.MkdirAll(traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceOut, fmt.Sprintf("%s-%d.json", s.name, seed))
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(out, traces); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced run wrote %d op traces to %s\n", len(traces), path)
	return nil
}

// op replays one request: a root span, then a child span per public
// call. Writes: license.decode, rtree.search and headroom.admit (the
// layers IssueContext reaches internally, timed beside it on the same
// inputs), then the engine call with wal.append beneath it. Audits:
// engine.audit, then core.replay, core.validate and headroom.verify
// beside it.
func (rp *replayer) op(i int, r request) error {
	ctx, root := rp.tr.Root(rp.ctx, "op."+r.Verb)
	root.SetInt("op", int64(i))
	defer root.End()
	call := func(name string, fn func(parent context.Context) error) error {
		sctx, sp := trace.Start(ctx, name)
		err := fn(sctx)
		sp.End()
		return err
	}
	// in is the context handed to the program: cancellable like the run,
	// carrying the benchmark's span only under parentKey.
	in := func(parent context.Context) context.Context {
		return context.WithValue(rp.ctx, parentKey{}, parent)
	}

	switch r.Verb {
	case verbAudit:
		return rp.audit(i, call, in)
	case verbRead:
		return call("engine.headroom_summaries", func(p context.Context) error {
			_, err := rp.dist.HeadroomSummaries(in(p))
			return err
		})
	}

	var rect geometry.Rect
	var body writeBody
	if err := call("license.decode", func(context.Context) error {
		if err := json.Unmarshal(r.Body, &body); err != nil {
			return err
		}
		var err error
		rect, err = license.BuildRect(rp.schema, body.Values)
		return err
	}); err != nil {
		return err
	}
	var set bitset.Mask
	_ = call("rtree.search", func(context.Context) error {
		set = rp.dist.BelongsTo(rect)
		return nil
	})
	admitted := false
	if r.Verb == verbIssue && !set.Empty() {
		if err := call("headroom.admit", func(p context.Context) error {
			var err error
			_, admitted, err = rp.shadow.Admit(in(p), set, body.Count)
			if admitted {
				rp.shadow.Confirm()
			}
			return err
		}); err != nil {
			return err
		}
	}
	var err error
	_ = call("engine."+r.Verb, func(p context.Context) error {
		switch r.Verb {
		case verbIssue:
			_, err = rp.dist.IssueContext(in(p), license.Usage, rect, body.Count)
		case verbRevoke:
			_, err = rp.dist.RevokeContext(in(p), rect, body.Count)
		default:
			_, err = rp.dist.TransferContext(in(p), rect, body.Count)
		}
		return nil
	})
	status := http.StatusOK
	if err != nil {
		status = drmerr.HTTPStatus(err)
	}
	if status != r.Want {
		return fmt.Errorf("got %d, want %d: %v", status, r.Want, err)
	}
	if err != nil {
		if admitted {
			return errors.New("shadow cache admitted an issuance the engine refused")
		}
		return nil
	}
	// Mirror the decided write into the shadow cache, outside the op's
	// spans, so its later Verify compares like with like.
	switch r.Verb {
	case verbIssue:
		if !admitted {
			return errors.New("engine admitted an issuance the shadow cache refused")
		}
	case verbRevoke:
		return rp.shadow.Credit(rp.ctx, set, body.Count)
	case verbTransfer:
		return rp.shadow.ApplyTransfer(set, body.Count)
	}
	return nil
}

// audit times Distributor.AuditContext and, beside it, the three calls
// it is made of. Odd ops run the parts first, so neither side always
// meets warm caches.
func (rp *replayer) audit(i int, call func(string, func(context.Context) error) error, in func(context.Context) context.Context) error {
	workers := runtime.NumCPU()
	engineAudit := func() error {
		return call("engine.audit", func(p context.Context) error {
			rep, _, err := rp.dist.AuditContext(in(p), workers)
			if err == nil && (!rep.OK() || !rep.Complete()) {
				err = fmt.Errorf("audit ok=%v complete=%v", rep.OK(), rep.Complete())
			}
			return err
		})
	}
	parts := func() error {
		var aud *core.Auditor
		if err := call("core.replay", func(p context.Context) error {
			var err error
			aud, err = core.NewAuditorContext(in(p), rp.dist.Corpus(), rp.store)
			return err
		}); err != nil {
			return err
		}
		aud.Workers = workers
		if err := call("core.validate", func(p context.Context) error {
			rep, err := aud.AuditContext(in(p))
			rp.eqs = rep.Equations
			return err
		}); err != nil {
			return err
		}
		return call("headroom.verify", func(p context.Context) error {
			_, err := rp.shadow.Verify(in(p), rp.store)
			return err
		})
	}
	first, second := engineAudit, parts
	if i%2 == 1 {
		first, second = parts, engineAudit
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// layerTimes folds the op traces into the per-layer metrics. A span's
// self time is its duration minus its children's; each op's self times
// must be non-negative and sum to the op's duration.
func layerTimes(traces []*trace.TraceRecord, res *result, httpP50 time.Duration) error {
	durs := map[string][]time.Duration{}
	add := func(name string, d time.Duration) { durs[name] = append(durs[name], d) }
	for _, tr := range traces {
		by := map[string]time.Duration{}
		child := map[uint64]time.Duration{}
		for _, sp := range tr.Spans {
			by[sp.Name] += time.Duration(sp.Duration)
			child[sp.Parent] += time.Duration(sp.Duration)
		}
		var selfSum time.Duration
		for _, sp := range tr.Spans {
			self := time.Duration(sp.Duration) - child[sp.ID]
			if self < 0 {
				return fmt.Errorf("trace %s: span %s's children outlast it by %v", tr.ID, sp.Name, -self)
			}
			selfSum += self
		}
		if selfSum != time.Duration(tr.Duration) {
			return fmt.Errorf("trace %s: self times sum to %v, op took %v", tr.ID, selfSum, time.Duration(tr.Duration))
		}
		switch tr.Name {
		case "op.issue", "op.revoke", "op.transfer":
			eng := by["engine.issue"] + by["engine.revoke"] + by["engine.transfer"]
			add("serve", by["license.decode"]+eng)
			add("engine.self", eng-by["wal.append"]-by["rtree.search"]-by["headroom.admit"])
			for _, n := range []string{"license.decode", "rtree.search", "wal.append"} {
				add(n, by[n])
			}
			if tr.Name == "op.issue" {
				add("headroom.admit", by["headroom.admit"])
			}
		case "op.audit":
			for _, n := range []string{"core.replay", "core.validate", "headroom.verify"} {
				add(n, by[n])
			}
			add("engine.audit_self", by["engine.audit"]-by["core.replay"]-by["core.validate"]-by["headroom.verify"])
		}
	}
	p50 := func(name string) time.Duration {
		xs := durs[name]
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return quantile(xs, 0.5)
	}
	for name, key := range map[string]string{
		"license.decode_us": "license.decode",
		"rtree.search_us":   "rtree.search",
		"headroom.admit_us": "headroom.admit",
		"engine.self_us":    "engine.self",
		"wal.append_us":     "wal.append",
	} {
		res.layers[name] = us(p50(key))
	}
	for name, key := range map[string]string{
		"headroom.verify_ms":   "headroom.verify",
		"core.replay_ms":       "core.replay",
		"core.validate_ms":     "core.validate",
		"engine.audit_self_ms": "engine.audit_self",
	} {
		res.layers[name] = ms(p50(key))
	}
	res.layers["drmserver.outside_us"] = us(httpP50 - p50("serve"))
	res.info("traced_serve_p50_us", us(p50("serve")), "us", "traced write: license.decode + engine call")
	return nil
}

// segmentBytes sums the WAL's segment file sizes.
func segmentBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.seg")) // the pattern is well-formed
	var n int64
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			n += fi.Size()
		}
	}
	return n
}
