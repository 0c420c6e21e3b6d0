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
// -stats audits the N=max synthetic workload and writes its AuditStats
// record as JSON. -trace audits the same workload under a live tracer
// and writes the span tree as Chrome Trace Event JSON (open in
// Perfetto):
//
//	drmbench -fig 6 -max 10 -trace trace.json
//
// The serving stack's own costs are Go benchmarks beside the code they
// time, such as BenchmarkRecovery (internal/wal) for WAL recovery and
// BenchmarkCatchUp (internal/engine) for follower catch-up, and
// perfbench measures it end to end.
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
		statsPath = fs.String("stats", "",
			"audit the N=max synthetic workload and write its AuditStats record (JSON) to this path")
		timeout = fs.Duration("timeout", 0,
			"deadline for the -stats and -trace audits (0 = none); an expired deadline still writes the partial run record")
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
	// sparse keeps the points up to -max, or the whole sweep if none is.
	sparse := func(points ...int) []int {
		var ps []int
		for _, n := range points {
			if n <= *maxN {
				ps = append(ps, n)
			}
		}
		if len(ps) == 0 {
			return ns
		}
		return ps
	}

	figures := []struct {
		num   int
		title string
		write func() error
	}{
		{6, "Fig 6: variation of number of groups", func() error {
			rows, err := bench.Fig6(ns, *seed)
			return emit(out, csvOut, rows, err, bench.WriteFig6, bench.WriteFig6CSV)
		}},
		{7, "Fig 7: validation time complexity", func() error {
			rows, err := bench.Fig7(ns, *maxOriginal, *seed)
			return emit(out, csvOut, rows, err, bench.WriteFig7, bench.WriteFig7CSV)
		}},
		{8, "Fig 8: theoretical vs experimental gain", func() error {
			rows, err := bench.Fig8(ns, *maxOriginal, *seed)
			return emit(out, csvOut, rows, err, bench.WriteFig8, bench.WriteFig8CSV)
		}},
		{9, "Fig 9: insertion time vs division time", func() error {
			rows, err := bench.Fig9(ns, *seed)
			return emit(out, csvOut, rows, err, bench.WriteFig9, bench.WriteFig9CSV)
		}},
		{10, "Fig 10: storage space complexity", func() error {
			rows, err := bench.Fig10(ns, *seed)
			return emit(out, csvOut, rows, err, bench.WriteFig10, bench.WriteFig10CSV)
		}},
		// A sparse sweep suffices: the effect is per-corpus, not per-N.
		{11, "Extension: issuance-policy loss (Example 1 at scale)", func() error {
			rows, err := bench.Policies(sparse(4, 8, 12, 16, 20), *seed)
			return emit(out, csvOut, rows, err, bench.WritePolicies, bench.WritePoliciesCSV)
		}},
		// Sharding pays off only once a group's 2^N−1 equations dominate,
		// so a sparse sweep over larger N tells the story; tiny N rows
		// would only measure goroutine overhead.
		{12, "Ablation: intra-group sharded validation (fig 12)", func() error {
			rows, err := bench.IntraGroup(sparse(8, 12, 16, 18, 20), *workers, *seed)
			return emit(out, csvOut, rows, err, bench.WriteIntraGroup, bench.WriteIntraGroupCSV)
		}},
	}
	ran := false
	for _, f := range figures {
		if *fig != 0 && *fig != f.num {
			continue
		}
		ran = true
		if !csvOut {
			fmt.Fprintf(out, "== %s ==\n", f.title)
		}
		if err := f.write(); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(out)
		}
	}
	if *statsPath != "" {
		ran = true
		aud, err := auditWorkload(nil, *maxN, *workers, *seed, *timeout)
		if err != nil {
			return err
		}
		if err := writeFile(*statsPath, aud.Stats().WriteJSON); err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintf(out, "stats: wrote %s (audit of the N=%d workload)\n", *statsPath, *maxN)
		}
	}
	if *tracePath != "" {
		ran = true
		// Zero policy: the trace is always retained, even deadline-cut.
		tr := trace.New(trace.Options{Capacity: 4})
		aud, err := auditWorkload(tr, *maxN, *workers, *seed, *timeout)
		if err != nil {
			return err
		}
		slogger.Debug("traced audit finished", "n", *maxN, "partial", aud.Stats().Incomplete)
		if err := writeFile(*tracePath, func(w io.Writer) error {
			return trace.WriteChrome(w, tr.Snapshot())
		}); err != nil {
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

// emit writes a figure's rows as a table, or as CSV when csv is set.
func emit[R any](out io.Writer, csv bool, rows []R, err error, table, csvRows func(io.Writer, []R) error) error {
	if err != nil {
		return err
	}
	if csv {
		return csvRows(out, rows)
	}
	return table(out, rows)
}

// auditWorkload audits the seeded synthetic workload at N = n, its log
// held in memory, under a deadline of timeout (0 = none). A non-nil tr
// records the auditor's build and audit under one root span. A
// deadline-cut audit is no error: its auditor holds the partial,
// Incomplete-marked run record, which CI archives per build so
// validation economics compare across revisions.
func auditWorkload(tr *trace.Tracer, n, workers int, seed int64, timeout time.Duration) (*core.Auditor, error) {
	cfg := workload.Default(n)
	cfg.Seed = seed
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	log := logstore.NewMem(len(w.Records))
	for _, r := range w.Records {
		if err := log.Append(r); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, root := tr.Root(ctx, "drmbench.audit")
	defer root.End()
	aud, err := core.NewAuditorContext(ctx, w.Corpus, log)
	if err == nil {
		aud.Workers = workers
		_, err = aud.AuditContext(ctx)
	}
	root.SetInt("n", int64(n))
	root.SetInt("workers", int64(workers))
	if err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
		root.Fail(err)
		return nil, err
	}
	return aud, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
