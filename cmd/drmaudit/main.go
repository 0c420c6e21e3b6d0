// Command drmaudit runs the geometric offline aggregate validation over a
// corpus document and an issuance log (the files cmd/drmgen writes, or any
// files in the same formats).
//
// Usage:
//
//	drmaudit -corpus corpus.json -log log.jsonl [-workers 4] [-compare]
//	drmaudit -corpus corpus.json -log issued.wal            # WAL directory
//	drmaudit -corpus corpus.json -log log.jsonl -migrate-wal issued.wal
//	drmaudit -corpus corpus.json -log log.jsonl -trace out.json  # Perfetto trace
//
// The issuance log is a WAL directory (internal/wal) when -log is a
// directory, and a JSONL file otherwise. A WAL repairs its own torn tail
// during recovery; a JSONL file that fails to decode is reported with
// the byte offset of the bad record. -migrate-wal converts the log into
// a fresh WAL store, snapshot included, after the audit passes over it:
// it is how a JSONL log becomes one drmserver can open. -compact
// snapshots a WAL and retires the segments the snapshot covers.
//
// It prints the grouping, the theoretical gain, per-stage timings, and any
// violated validation equations. -workers (default: all CPUs) bounds the
// audit's parallelism with a two-level budget — across groups and across
// contiguous mask shards inside each group — so even a single dominant
// group uses every core; the report is identical at any setting. With
// -compare it also runs the original undivided validator and reports the
// measured speed-up (refusing when N exceeds -max-original). With
// -timeout the audit runs under a deadline; when it expires the
// verified-so-far report and per-group completeness are printed. The exit
// status is 2 when violations are found and 3 when the deadline cut the
// audit short.
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/forecast"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/signature"
	"repro/internal/trace"
	"repro/internal/vtree"
	"repro/internal/wal"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drmaudit:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("drmaudit", flag.ContinueOnError)
	var (
		corpusPath = fs.String("corpus", "corpus.json", "corpus document path")
		logPath    = fs.String("log", "log.jsonl", "issuance log path")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0),
			"validation parallelism: groups × intra-group mask shards (default: all CPUs; 1 = the paper's serial algorithm)")
		compare     = fs.Bool("compare", false, "also run the undivided 2^N-1 equation validator")
		maxOriginal = fs.Int("max-original", 24, "largest N for which -compare is allowed")
		explain     = fs.Bool("explain", false, "decompose each violated equation into contributions and budgets")
		capacity    = fs.Bool("capacity", false, "print per-license headrooms and group utilization")
		forecastAx  = fs.String("forecast", "", "project the validation plan across expiries along this interval axis")
		dotPath     = fs.String("dot", "", "write the overlap graph (Graphviz DOT) to this path")
		jsonOut     = fs.Bool("json", false, "emit the audit as a JSON document instead of text")
		statsPath   = fs.String("stats", "", "write the typed AuditStats record (JSON) to this path")
		signed      = fs.Bool("signed", false, "treat -corpus as an Ed25519-signed document and verify it")
		issuerKey   = fs.String("issuer", "", "pinned issuer public key (base64; with -signed)")
		compactLog  = fs.Bool("compact", false, "compact a WAL log after reading it: snapshot + segment retirement")
		migrateWAL  = fs.String("migrate-wal", "",
			"after the audit, migrate the log records into a fresh WAL store at this directory and snapshot it")
		timeout = fs.Duration("timeout", 0,
			"audit deadline (0 = none); an expired deadline prints the verified-so-far report, per-group completeness, and exits 3")
		tracePath = fs.String("trace", "",
			"trace the audit and write it as Chrome Trace Event JSON (Perfetto-loadable) to this path")
		logLevel  = fs.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "diagnostic log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	// Diagnostics go to stderr (stdout is the report); -log-level debug
	// narrates the load/audit stages, and every record carries the
	// audit's trace_id when -trace is on.
	lh, err := obs.NewLogHandler(*logFormat, *logLevel, os.Stderr)
	if err != nil {
		return 0, err
	}
	slogger := slog.New(trace.LogHandler(lh))

	var tracer *trace.Tracer
	if *tracePath != "" {
		// The zero policy is "slow=0": the one audit trace is always
		// retained, partial or not.
		tracer = trace.New(trace.Options{Capacity: 4})
	}

	cf, err := os.Open(*corpusPath)
	if err != nil {
		return 0, err
	}
	var corpus *license.Corpus
	if *signed {
		var trusted ed25519.PublicKey
		if *issuerKey != "" {
			trusted, err = signature.KeyFromString(*issuerKey)
			if err != nil {
				cf.Close()
				return 0, err
			}
		}
		var pub ed25519.PublicKey
		corpus, pub, err = signature.ReadSignedCorpus(cf, trusted)
		cf.Close()
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "issuer:      verified (%s)\n", signature.KeyToString(pub))
	} else {
		corpus, err = license.DecodeCorpus(cf)
		cf.Close()
		if err != nil {
			return 0, err
		}
	}

	fi, err := os.Stat(*logPath)
	isWAL := err == nil && fi.IsDir()
	if *compactLog && !isWAL {
		return 0, fmt.Errorf("-compact needs a WAL directory, and %s is not one (convert a JSONL log with -migrate-wal)", *logPath)
	}
	log := logstore.NewMem(0)
	if isWAL {
		ws, err := wal.Open(*logPath, wal.Options{})
		if err != nil {
			return 0, err
		}
		rerr := ws.ForEach(log.Append)
		st := ws.RecoveryStats()
		if cerr := ws.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return 0, rerr
		}
		if st.TruncatedBytes > 0 {
			fmt.Fprintf(out, "repaired:    %s: truncated %d torn-tail bytes during recovery\n",
				*logPath, st.TruncatedBytes)
		}
	} else if err := logstore.ReadFile(*logPath, log.Append); err != nil {
		return 0, err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The root span covers auditor construction (tree build + replay +
	// division) and the validation walk; tracer nil makes Root a no-op.
	// flushTrace runs on every exit after the root ends — a trace of a
	// failed or deadline-cut audit is the one you want most.
	ctx, root := tracer.Root(ctx, "drmaudit.audit")
	slogger.DebugContext(ctx, "log loaded", "records", log.Len(), "wal", isWAL)
	flushTrace := func() error {
		if *tracePath == "" {
			return nil
		}
		if err := writeTraceFile(*tracePath, tracer); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(out, "trace:       wrote %s (Chrome Trace Event JSON; load in Perfetto)\n", *tracePath)
		}
		return nil
	}

	aud, err := core.NewAuditorContext(ctx, corpus, log)
	if err != nil {
		root.Fail(err)
		root.End()
		if ferr := flushTrace(); ferr != nil {
			slogger.Warn("trace write failed", "error", ferr)
		}
		return 0, err
	}
	aud.Workers = *workers
	rep, err := aud.AuditContext(ctx)
	partial := errors.Is(err, drmerr.ErrAuditIncomplete)
	if root != nil {
		root.SetInt("licenses", int64(corpus.Len()))
		root.SetInt("records", int64(log.Len()))
		root.SetInt("workers", int64(*workers))
		if err != nil && !partial {
			root.Fail(err)
		}
		root.End()
	}
	slogger.DebugContext(ctx, "audit finished",
		"partial", partial, "equations", rep.Equations, "violations", len(rep.Violations))
	if err != nil && !partial {
		if ferr := flushTrace(); ferr != nil {
			slogger.Warn("trace write failed", "error", ferr)
		}
		return 0, err
	}
	if err := flushTrace(); err != nil {
		return 0, err
	}

	if *statsPath != "" {
		if err := writeStats(*statsPath, aud.Stats()); err != nil {
			return 0, err
		}
		if !*jsonOut { // keep -json stdout a single document
			fmt.Fprintf(out, "stats:       wrote %s\n", *statsPath)
		}
	}

	if *jsonOut {
		return writeJSONReport(out, corpus, log, aud, rep, partial)
	}

	gr := aud.Grouping()
	tm := aud.Timings()
	fmt.Fprintf(out, "corpus:      %d licenses, %d log records\n", corpus.Len(), log.Len())
	fmt.Fprintf(out, "groups:      %d %v\n", gr.NumGroups(), gr)
	fmt.Fprintf(out, "equations:   %d grouped (vs %.0f undivided)\n",
		rep.Equations, core.FullEquationCount(corpus.Len()))
	fmt.Fprintf(out, "gain (eq 3): %.2fx theoretical\n", aud.Gain())
	fmt.Fprintf(out, "timings:     build C_T=%v  divide D_T=%v  validate V_T=%v\n",
		tm.Construction, tm.DT(), tm.Validation)

	if *compare {
		if corpus.Len() > *maxOriginal {
			fmt.Fprintf(out, "compare:     skipped (N=%d > max-original %d; 2^N equations)\n",
				corpus.Len(), *maxOriginal)
		} else {
			tree, err := vtree.Build(corpus.Len(), log)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			res, err := tree.ValidateAll(corpus.Aggregates())
			if err != nil {
				return 0, err
			}
			orig := time.Since(start)
			speedup := float64(orig) / float64(tm.Validation)
			fmt.Fprintf(out, "compare:     undivided V_T=%v over %d equations (%.1fx measured speed-up)\n",
				orig, res.Equations, speedup)
			if res.OK() != rep.OK() {
				return 0, fmt.Errorf("validators disagree: grouped OK=%v, undivided OK=%v", rep.OK(), res.OK())
			}
		}
	}

	if *forecastAx != "" {
		steps, err := forecast.Timeline(corpus, *forecastAx)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(out, "forecast (expiry timeline):")
		tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "time\texpired\tactive\tgroups\tequations\tgain\tsplit\t")
		for _, st := range steps {
			split := ""
			if st.Split {
				split = "SPLIT"
			}
			fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%.1fx\t%s\t\n",
				st.Time, st.Expired, st.Active.Len(), len(st.Groups), st.Equations, st.Gain, split)
		}
		if err := tw.Flush(); err != nil {
			return 0, err
		}
	}

	if *dotPath != "" {
		df, err := os.Create(*dotPath)
		if err != nil {
			return 0, err
		}
		adj := overlap.BuildAdjacency(corpus)
		names := make([]string, corpus.Len())
		for i := range names {
			names[i] = corpus.License(i).Name
		}
		if err := overlap.WriteDOT(df, adj, gr, names); err != nil {
			df.Close()
			return 0, err
		}
		if err := df.Close(); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "graph:       wrote %s\n", *dotPath)
	}

	if *compactLog {
		ws, err := wal.Open(*logPath, wal.Options{})
		if err != nil {
			return 0, err
		}
		info, err := ws.Snapshot()
		if cerr := ws.Close(); err == nil { // Close waits for segment retirement
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "compacted:   %s: snapshot of %d records at seq %d\n",
			*logPath, info.Records, info.Seq)
	}

	if *migrateWAL != "" {
		if err := migrateToWAL(*migrateWAL, log); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "migrated:    %d records -> %s (wal, snapshotted)\n", log.Len(), *migrateWAL)
	}

	if *capacity {
		capRep, err := core.Capacity(aud.Trees())
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(out, "capacity:")
		if err := capRep.Write(out); err != nil {
			return 0, err
		}
		cuts := overlap.CutLicenses(overlap.BuildAdjacency(corpus))
		if !cuts.Empty() {
			fmt.Fprintf(out, "cut licenses: %v — expiry of any of these splits its group and cheapens validation\n", cuts)
		}
	}

	if partial {
		fmt.Fprintf(out, "completeness: %d/%d groups fully checked before the deadline\n",
			rep.GroupsComplete(), len(rep.Completeness))
		for _, gc := range rep.Completeness {
			state := "complete"
			if !gc.Complete {
				state = "cut short"
			}
			fmt.Fprintf(out, "  group %d: %d/%d equations (%s)\n",
				gc.Group+1, gc.MasksScanned, gc.MasksTotal, state)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		fmt.Fprintf(out, "result:      INCOMPLETE — deadline expired; %d violations found so far (all real)\n",
			len(rep.Violations))
		return 3, nil
	}
	if rep.OK() {
		fmt.Fprintln(out, "result:      OK — no aggregate violations")
		return 0, nil
	}
	fmt.Fprintf(out, "result:      %d VIOLATED equations\n", len(rep.Violations))
	if *explain {
		exps, err := core.ExplainReport(aud.Trees(), rep)
		if err != nil {
			return 0, err
		}
		for _, e := range exps {
			fmt.Fprint(out, e)
		}
	} else {
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
	}
	return 2, nil
}

// migrateToWAL writes the in-memory log into a fresh WAL store at dir and
// snapshots it, so the first server open replays nothing. A target that
// ever took an append is refused — migration never merges histories —
// even when its records net out to nothing.
func migrateToWAL(dir string, log *logstore.Mem) error {
	ws, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	if seq := ws.Seq(); seq != 0 {
		ws.Close()
		return fmt.Errorf("refusing to migrate into non-empty WAL %s (%d records appended)", dir, seq)
	}
	if err := ws.AppendBatch(log.Records()); err != nil {
		ws.Close()
		return err
	}
	if _, err := ws.Snapshot(); err != nil {
		ws.Close()
		return err
	}
	return ws.Close()
}

// writeTraceFile writes every retained trace (here: the one audit trace)
// as a Chrome Trace Event document.
func writeTraceFile(path string, tr *trace.Tracer) error {
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

// writeStats writes the typed run-stats record to path.
func writeStats(path string, st obs.AuditStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonReport is the machine-readable audit document -json emits.
type jsonReport struct {
	Licenses   int      `json:"licenses"`
	LogRecords int      `json:"log_records"`
	Groups     [][]int  `json:"groups"` // one-based license numbers
	Equations  int64    `json:"equations"`
	Gain       float64  `json:"gain"`
	OK         bool     `json:"ok"`
	Violations []string `json:"violations,omitempty"`
	// Complete is false when -timeout cut the audit short; Completeness
	// then records the per-group scan progress.
	Complete     bool                     `json:"complete"`
	Completeness []core.GroupCompleteness `json:"completeness,omitempty"`
	TimingsNS    struct {
		Construction int64 `json:"construction"`
		Division     int64 `json:"division"`
		Validation   int64 `json:"validation"`
	} `json:"timings_ns"`
}

func writeJSONReport(out io.Writer, corpus *license.Corpus, log *logstore.Mem, aud *core.Auditor, rep core.Report, partial bool) (int, error) {
	doc := jsonReport{
		Licenses:   corpus.Len(),
		LogRecords: log.Len(),
		Equations:  rep.Equations,
		Gain:       aud.Gain(),
		OK:         rep.OK(),
		Complete:   rep.Complete(),
	}
	if partial {
		doc.Completeness = rep.Completeness
	}
	for _, g := range aud.Grouping().Groups {
		var ids []int
		g.Members.ForEach(func(j int) bool { ids = append(ids, j+1); return true })
		doc.Groups = append(doc.Groups, ids)
	}
	for _, v := range rep.Violations {
		doc.Violations = append(doc.Violations, v.String())
	}
	tm := aud.Timings()
	doc.TimingsNS.Construction = tm.Construction.Nanoseconds()
	doc.TimingsNS.Division = tm.DT().Nanoseconds()
	doc.TimingsNS.Validation = tm.Validation.Nanoseconds()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return 0, err
	}
	if partial {
		return 3, nil
	}
	if rep.OK() {
		return 0, nil
	}
	return 2, nil
}
