// Command drmbench regenerates the paper's evaluation figures (§5) on
// synthetic workloads and prints each as an aligned text table.
//
// Usage:
//
//	drmbench                 # all figures, N = 1..35
//	drmbench -fig 7 -max 20  # one figure, shorter sweep
//
// Figure index (see DESIGN.md / EXPERIMENTS.md):
//
//	6  number of disconnected groups vs N
//	7  validation time: original vs proposed (V_T, V_T + D_T)
//	8  theoretical (eq 3) vs experimental gain
//	9  single-record insertion time vs tree-division time
//	10 storage: original tree vs divided trees
//	11 issuance-policy loss extension
//	12 intra-group sharding ablation: serial vs sharded single-group V_T
//	   (-workers bounds the shard budget; default: all CPUs)
//
// Beyond the figures, -recover benchmarks WAL crash recovery (full log
// replay of plain credits and of the lifecycle mix, vs snapshot+tail)
// over decades of record counts, each time the median of five opens
// with its cost per replayed frame:
//
//	drmbench -recover -recover-max 10000000
//
// -issue benchmarks online admission — the full validation walk the
// pre-cache hot path ran per issuance versus the headroom cache's kept
// maximum flow — over decades of prior-log sizes, optionally writing
// the rows as a JSON artifact:
//
//	drmbench -issue -issue-max 1000000 -issue-json issue.json
//
// -lifecycle benchmarks the typed lifecycle ledger under a mixed
// issue/revoke/transfer stream (ratio set by -lifecycle-mix, with TTL
// issues and periodic expiry sweeps riding along):
//
//	drmbench -lifecycle -lifecycle-mix 8:1:1 -lifecycle-json lifecycle.json
//
// -repl benchmarks WAL log shipping: a follower catching a leader up
// over real replication handlers in bounded fetch windows, applying
// them into a real distributor (throughput, fetch rounds, lag-
// convergence time split into fetch, ingest and apply), then a
// failover — leader gone, follower promoted, first post-promotion
// write:
//
//	drmbench -repl -repl-max 100000 -repl-json BENCH_repl.json
//
// -trace audits the N=max synthetic workload under a live tracer and
// writes the span tree as Chrome Trace Event JSON (open in Perfetto):
//
//	drmbench -fig 6 -max 10 -trace trace.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("drmbench", flag.ContinueOnError)
	var (
		fig         = fs.Int("fig", 0, "figure to regenerate (6..10, 11 = policy-loss extension, 12 = intra-group sharding ablation; 0 = all)")
		maxN        = fs.Int("max", 35, "largest N in the sweep")
		maxOriginal = fs.Int("max-original", bench.DefaultMaxOriginalN,
			"largest N at which the undivided validator runs (2^N equations)")
		seed    = fs.Int64("seed", 1, "workload seed")
		format  = fs.String("format", "table", "output format: table or csv")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0),
			"worker budget for the fig 12 sharded runs (groups × intra-group mask shards)")
		recoverMode = fs.Bool("recover", false,
			"benchmark WAL recovery: full replay (plain and lifecycle mix) vs snapshot+tail over decades of record counts")
		recoverMax = fs.Int("recover-max", 1_000_000,
			"largest record count in the -recover sweep (decades from 100k)")
		issueMode = fs.Bool("issue", false,
			"benchmark online admission: full validation walk vs headroom cache over decades of prior-log sizes")
		issueMax = fs.Int("issue-max", 1_000_000,
			"largest prior-log record count in the -issue sweep (decades from 10k)")
		issueOps = fs.Int("issue-ops", 2000,
			"measured issuances per -issue point on the cached arm (the full arm caps at 200)")
		issueJSON = fs.String("issue-json", "",
			"also write the -issue ablation rows as a JSON artifact to this path")
		lifecycleMode = fs.Bool("lifecycle", false,
			"benchmark the mixed lifecycle ledger workload: issue/revoke/transfer in the -lifecycle-mix ratio, with TTL issues and periodic expiry sweeps")
		lifecycleOps = fs.Int("lifecycle-ops", 20_000,
			"measured ops in the -lifecycle stream")
		lifecycleMixFlag = fs.String("lifecycle-mix", "8:1:1",
			"issue:revoke:transfer weights for the -lifecycle stream")
		lifecycleJSON = fs.String("lifecycle-json", "",
			"also write the -lifecycle rows as a JSON artifact to this path")
		replMode = fs.Bool("repl", false,
			"benchmark WAL log shipping: follower catch-up throughput, lag convergence, and promote/failover time")
		replMax = fs.Int("repl-max", 100_000,
			"largest leader record count in the -repl sweep (decades from 10k, then this count)")
		replWindow = fs.Int("repl-window", cluster.DefaultMaxBytes,
			"replication fetch window in bytes per round-trip (default: the server follower's)")
		replJSON = fs.String("repl-json", "",
			"also write the -repl rows as a JSON artifact to this path")
		statsPath = fs.String("stats", "",
			"audit the N=max synthetic workload and write its AuditStats record (JSON) to this path")
		timeout = fs.Duration("timeout", 0,
			"deadline for the -stats audit (0 = none); an expired deadline still writes the partial run record")
		tracePath = fs.String("trace", "",
			"trace an audit of the N=max synthetic workload and write it as Chrome Trace Event JSON (Perfetto-loadable) to this path")
		logLevel  = fs.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "diagnostic log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Diagnostics go to stderr so -format csv stdout stays machine-clean.
	lh, err := obs.NewLogHandler(*logFormat, *logLevel, os.Stderr)
	if err != nil {
		return err
	}
	slogger := slog.New(trace.LogHandler(lh))

	if *maxN < 1 || *maxN > 64 {
		return fmt.Errorf("max must be in [1,64], got %d", *maxN)
	}
	csvOut := false
	switch *format {
	case "table":
	case "csv":
		csvOut = true
	default:
		return fmt.Errorf("unknown format %q (want table or csv)", *format)
	}
	ns := make([]int, 0, *maxN)
	for n := 1; n <= *maxN; n++ {
		ns = append(ns, n)
	}

	// -recover, -issue, -lifecycle, and -repl suppress the default
	// all-figures sweep (a 10^7-record recovery run should not drag the
	// full N sweep along); an explicit -fig still combines with them.
	want := func(f int) bool {
		if *fig != 0 {
			return *fig == f
		}
		return !*recoverMode && !*issueMode && !*lifecycleMode && !*replMode
	}
	ran := false

	if want(6) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Fig 6: variation of number of groups ==")
		}
		rows, err := bench.Fig6(ns, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteFig6
		if csvOut {
			write = bench.WriteFig6CSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(7) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Fig 7: validation time complexity ==")
		}
		rows, err := bench.Fig7(ns, *maxOriginal, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteFig7
		if csvOut {
			write = bench.WriteFig7CSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(8) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Fig 8: theoretical vs experimental gain ==")
		}
		rows, err := bench.Fig8(ns, *maxOriginal, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteFig8
		if csvOut {
			write = bench.WriteFig8CSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(9) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Fig 9: insertion time vs division time ==")
		}
		rows, err := bench.Fig9(ns, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteFig9
		if csvOut {
			write = bench.WriteFig9CSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(10) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Fig 10: storage space complexity ==")
		}
		rows, err := bench.Fig10(ns, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteFig10
		if csvOut {
			write = bench.WriteFig10CSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(11) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Extension: issuance-policy loss (Example 1 at scale) ==")
		}
		// A sparse sweep suffices: the effect is per-corpus, not per-N.
		var pns []int
		for _, n := range []int{4, 8, 12, 16, 20} {
			if n <= *maxN {
				pns = append(pns, n)
			}
		}
		if len(pns) == 0 {
			pns = ns
		}
		rows, err := bench.Policies(pns, *seed)
		if err != nil {
			return err
		}
		write := bench.WritePolicies
		if csvOut {
			write = bench.WritePoliciesCSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if want(12) {
		ran = true
		if !csvOut {
			fmt.Fprintln(out, "== Ablation: intra-group sharded validation (fig 12) ==")
		}
		// Sharding pays off only once a group's 2^N−1 equations dominate,
		// so a sparse sweep over larger N tells the story; tiny N rows
		// would only measure goroutine overhead.
		var sns []int
		for _, n := range []int{8, 12, 16, 18, 20} {
			if n <= *maxN {
				sns = append(sns, n)
			}
		}
		if len(sns) == 0 {
			sns = ns
		}
		rows, err := bench.IntraGroup(sns, *workers, *seed)
		if err != nil {
			return err
		}
		write := bench.WriteIntraGroup
		if csvOut {
			write = bench.WriteIntraGroupCSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *recoverMode {
		ran = true
		if *recoverMax < 1 {
			return fmt.Errorf("recover-max must be positive, got %d", *recoverMax)
		}
		if !csvOut {
			fmt.Fprintln(out, "== Recovery: full WAL replay vs snapshot+tail (median of 5 opens) ==")
		}
		rows, err := benchRecover(*recoverMax)
		if err != nil {
			return err
		}
		write := writeRecover
		if csvOut {
			write = writeRecoverCSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *issueMode {
		ran = true
		if *issueMax < 1 {
			return fmt.Errorf("issue-max must be positive, got %d", *issueMax)
		}
		if *issueOps < 1 {
			return fmt.Errorf("issue-ops must be positive, got %d", *issueOps)
		}
		if !csvOut {
			fmt.Fprintln(out, "== Online admission: full validation walk vs headroom cache ==")
		}
		rows, err := benchIssue(*issueMax, *issueOps, *seed)
		if err != nil {
			return err
		}
		write := writeIssue
		if csvOut {
			write = writeIssueCSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if *issueJSON != "" {
			if err := writeIssueJSON(*issueJSON, rows, issueMeta{Seed: *seed, Ops: *issueOps}); err != nil {
				return err
			}
			if !csvOut {
				fmt.Fprintf(out, "issue: wrote %s\n", *issueJSON)
			}
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *lifecycleMode {
		ran = true
		if *lifecycleOps < 1 {
			return fmt.Errorf("lifecycle-ops must be positive, got %d", *lifecycleOps)
		}
		mix, err := parseLifecycleMix(*lifecycleMixFlag)
		if err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintf(out, "== Lifecycle ledger: mixed %s issue:revoke:transfer stream ==\n", mix)
		}
		rows, sum, err := benchLifecycle(*lifecycleOps, mix, *seed)
		if err != nil {
			return err
		}
		write := writeLifecycle
		if csvOut {
			write = writeLifecycleCSV
		}
		if err := write(out, rows, sum); err != nil {
			return err
		}
		if *lifecycleJSON != "" {
			meta := lifecycleMeta{Seed: *seed, Ops: *lifecycleOps, Mix: mix.String()}
			if err := writeLifecycleJSON(*lifecycleJSON, rows, sum, meta); err != nil {
				return err
			}
			if !csvOut {
				fmt.Fprintf(out, "lifecycle: wrote %s\n", *lifecycleJSON)
			}
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *replMode {
		ran = true
		if *replMax < 1 {
			return fmt.Errorf("repl-max must be positive, got %d", *replMax)
		}
		if *replWindow < 1 {
			return fmt.Errorf("repl-window must be positive, got %d", *replWindow)
		}
		if !csvOut {
			fmt.Fprintln(out, "== Replication: WAL log shipping and failover ==")
		}
		rows, err := benchRepl(*replMax, *replWindow)
		if err != nil {
			return err
		}
		write := writeRepl
		if csvOut {
			write = writeReplCSV
		}
		if err := write(out, rows); err != nil {
			return err
		}
		if *replJSON != "" {
			if err := writeReplJSON(*replJSON, rows, replMeta{Max: *replMax, Window: *replWindow}); err != nil {
				return err
			}
			if !csvOut {
				fmt.Fprintf(out, "repl: wrote %s\n", *replJSON)
			}
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *statsPath != "" {
		ran = true
		if err := writeStats(*statsPath, *maxN, *workers, *seed, *timeout); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintf(out, "stats: wrote %s (audit of the N=%d workload)\n", *statsPath, *maxN)
		}
	}
	if *tracePath != "" {
		ran = true
		if err := writeTraceFile(slogger, *tracePath, *maxN, *workers, *seed, *timeout); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintf(out, "trace: wrote %s (Chrome Trace Event JSON; load in Perfetto)\n", *tracePath)
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %d (valid: 6..12, 0 for all; 11 = policy-loss extension, 12 = sharding ablation)", *fig)
	}
	return nil
}

// writeTraceFile audits the seeded synthetic workload at the sweep's
// largest N under a live tracer (zero policy: the trace is always
// retained, even deadline-cut) and writes the span tree as a Chrome
// Trace Event document — the same pipeline spans the server emits, but
// reproducible offline for CI artifacts.
func writeTraceFile(slogger *slog.Logger, path string, n, workers int, seed int64, timeout time.Duration) error {
	cfg := workload.Default(n)
	cfg.Seed = seed
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	log := logstore.NewMem(len(w.Records))
	for _, r := range w.Records {
		if err := log.Append(r); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	tr := trace.New(trace.Options{Capacity: 4})
	ctx, root := tr.Root(ctx, "drmbench.audit")
	aud, err := core.NewAuditorContext(ctx, w.Corpus, log)
	if err != nil {
		return err
	}
	aud.Workers = workers
	_, aerr := aud.AuditContext(ctx)
	partial := errors.Is(aerr, drmerr.ErrAuditIncomplete)
	root.SetInt("n", int64(n))
	root.SetInt("workers", int64(workers))
	if aerr != nil && !partial {
		root.Fail(aerr)
	}
	root.End()
	slogger.DebugContext(ctx, "traced audit finished", "n", n, "partial", partial)
	if aerr != nil && !partial {
		return aerr
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeStats audits the seeded synthetic workload at the sweep's largest N
// and writes the typed run-stats record — the document CI archives per
// build so validation economics are comparable across revisions. A
// non-zero timeout bounds the audit; a deadline-cut run still writes its
// (partial, Incomplete-marked) record.
func writeStats(path string, n, workers int, seed int64, timeout time.Duration) error {
	cfg := workload.Default(n)
	cfg.Seed = seed
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	log := logstore.NewMem(len(w.Records))
	for _, r := range w.Records {
		if err := log.Append(r); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	aud, err := core.NewAuditorContext(ctx, w.Corpus, log)
	if err != nil {
		return err
	}
	aud.Workers = workers
	if _, err := aud.AuditContext(ctx); err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := aud.Stats().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
