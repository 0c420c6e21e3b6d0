// Command perfbench is the repository's serving benchmark. It builds
// nothing itself (run.sh builds it and drmserver), generates seeded
// inputs, starts drmserver on loopback, drives it open-loop in one of
// three workloads, checks the server's answers and durable state, and
// prints every metric as a last JSON line. With -trace 1 it also replays
// the same stream in-process through each layer's public entry points
// and reports per-layer metrics from its own spans.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ledger --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// specs are the three workloads; README.md says why each exists.
var specs = map[string]spec{
	"ledger": {
		name: "ledger", groups: 5, priors: 1_000_000,
		refRate: 1000, ladder: []float64{2000, 3000, 4000, 5000, 6000, 7000, 8000},
		mix: [3]int{8, 1, 1}, refusals: true,
	},
	"audit": {
		name: "audit", groups: 2, priors: corpusN * 630,
		refRate: 300, mix: [3]int{1, 0, 0}, auditEvery: 500 * time.Millisecond,
	},
	"routed": {
		name: "routed", groups: 5, priors: corpusN * 630,
		refRate: 300, mix: [3]int{8, 1, 1}, routed: true,
		// The smallest whole rate that leaves ten reads beyond read_p99
		// in a 45-second reference phase (1,035 reads).
		readRate: 23,
	},
}

// setupReps is how many times a run launches its servers to time set-up,
// setupGap apart; setup_s is the median of the quietest third
// (quietSetup).
const (
	setupReps = 15
	setupGap  = 200 * time.Millisecond
)

// fetchInterval is the follower's WAL fetch interval on routed.
const fetchInterval = "50ms"

func main() {
	var (
		wl       = flag.String("workload", "ledger", "workload: ledger, audit or routed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 45, "measured seconds of load")
		traced   = flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
		bin      = flag.String("bin", ".bench_build/drmserver", "drmserver binary")
		work     = flag.String("work", ".bench_build/runs", "directory for per-run inputs, WALs and server stderr")
		traceOut = flag.String("trace-out", ".bench_build/traces", "directory the traced run writes its Chrome trace to")
	)
	flag.Parse()
	s, ok := specs[*wl]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want ledger, audit or routed)", *wl))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("want -seconds >= 1 and -trace 0 or 1"))
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f := &fleet{bin: *bin, dir: dir}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A signal kills the servers at once; the run then fails and main
		// reports it.
		<-ctx.Done()
		f.killAll()
	}()
	res, err := run(ctx, s, *seed, *seconds, *traced == 1, dir, *traceOut, f)
	f.killAll()
	if err != nil {
		fatal(fmt.Errorf("%s seed %d: %w (run directory kept: %s)", s.name, *seed, err, dir))
	}
	os.RemoveAll(dir)
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report. Only the metrics the driver reads go into
// Metrics; Extra holds the rest of the issue's metric set, printed above
// the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     []line
	problems  []string

	layers map[string]float64 // per-layer metrics, by name
	maxRPS float64            // write_max_rps: highest ladder rung that held
	knee   string             // the first rung that did not hold, and why
	direct time.Duration      // routed: write p50 sent straight to the leader
}

// perLayer names the per-layer metrics and their units. A layer a
// workload never reaches (cluster on ledger and audit) reports 0.
var perLayer = []struct{ name, unit string }{
	{"drmserver.cpu_us_per_op", "us"},
	{"drmserver.outside_us", "us"},
	{"license.decode_us", "us"},
	{"rtree.search_us", "us"},
	{"headroom.admit_us", "us"},
	{"headroom.build_ms", "ms"},
	{"headroom.verify_ms", "ms"},
	{"headroom.table_bytes", "bytes"},
	{"engine.self_us", "us"},
	{"engine.audit_self_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.fsyncs_per_op", "ratio"},
	{"wal.bytes_per_op", "bytes"},
	{"wal.recover_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.equations", "count"},
	{"cluster.forward_us", "us"},
	{"cluster.fetches_per_kop", "count"},
	{"cluster.ship_bytes_per_op", "bytes"},
}

// layerMetrics is the traced run's report: every per-layer metric. The
// end-to-end metrics of the same run move to the printed lines.
func (r *result) layerMetrics() map[string]metric {
	for name, m := range r.Metrics {
		r.info(name, m.Value, m.Unit, "end-to-end, traced invocation")
	}
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{Value: r.layers[l.name], Unit: l.unit}
	}
	return out
}

type line struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) info(name string, v float64, unit, note string) {
	r.extra = append(r.extra, line{name, v, unit, note})
}

func (r *result) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// print writes the human-readable report, then the JSON line. A run
// that failed a correctness check reports no numbers.
func (r *result) print(w io.Writer) {
	if len(r.problems) > 0 {
		r.Correct = false
		for _, p := range r.problems {
			fmt.Fprintln(w, "CHECK FAILED:", p)
		}
		r.Metrics = map[string]metric{}
	} else {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		}
		for _, l := range r.extra {
			fmt.Fprintf(w, "%-28s %14.4f %-8s %s\n", l.name, l.value, l.unit, l.note)
		}
	}
	b, _ := json.Marshal(r) // a map of plain floats always encodes
	fmt.Fprintln(w, string(b))
}
