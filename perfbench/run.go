package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
)

// topology is the set of servers one run drives.
type topology struct {
	primary  *server // standalone server, or the leader
	follower *server // routed only
	router   *server // routed only
	walDir   string  // primary's WAL
	entry    string  // where the generator sends the reference stream
}

func (t *topology) servers() []*server {
	var out []*server
	for _, s := range []*server{t.primary, t.follower, t.router} {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// run is one benchmark run: inputs, set-up, load, checks, and (traced)
// the in-process replay.
func run(ctx context.Context, s spec, seed int64, seconds int, traced bool, dir, traceOut string, f *fleet) (*result, error) {
	in, err := generate(s, seed, seconds, traced, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	// Collect the generator's garbage now, not on the CPUs the servers
	// share during the load.
	runtime.GC()
	res := &result{Correct: true, Metrics: map[string]metric{}}

	walDir := filepath.Join(dir, "wal")
	if err := copyDir(in.walDir, walDir); err != nil {
		return nil, err
	}
	var top *topology
	var setups []timedSetup
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			// Spread the set-ups over a few seconds, so that one burst
			// of steal cannot cover them all.
			time.Sleep(setupGap)
		}
		total0, steal0, err := hostCPU()
		if err != nil {
			return nil, err
		}
		t, took, err := launch(ctx, s, in, walDir, dir, f, rep)
		if err != nil {
			return nil, err
		}
		total1, steal1, err := hostCPU()
		if err != nil {
			return nil, err
		}
		setups = append(setups, timedSetup{took, float64(steal1-steal0) / float64(max(total1-total0, 1))})
		if rep < setupReps-1 {
			for _, sv := range t.servers() {
				sv.kill()
			}
			continue
		}
		top = t
	}
	res.set("setup_s", quietSetup(setups).Seconds(), "s")
	all := make([]time.Duration, len(setups))
	for i, st := range setups {
		all[i] = st.took
	}
	res.info("setup_all_s", medianDur(all).Seconds(), "s", "median over every set-up, whatever the steal")

	cpu0, err := cpuOf(top.servers())
	if err != nil {
		return nil, err
	}
	t := newTally()
	var ref phaseResult
	var lags []int64
	var steal []stealSample
	for _, ph := range in.phases {
		base := top.entry
		if ph.Name == "direct" {
			base = top.primary.url
		}
		var stopLag func() []int64
		if ph.Name == "reference" && top.follower != nil {
			stopLag = sampleLag(top.primary, top.follower)
		}
		var stopSteal func() []stealSample
		if ph.Name == "reference" {
			stopSteal = sampleSteal()
		}
		pr := drive(ctx, base, ph)
		if stopLag != nil {
			lags = stopLag()
		}
		if stopSteal != nil {
			steal = stopSteal()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.add(pr)
		h := pr.health()
		if !h.ok() {
			return nil, fmt.Errorf("INVALID run, not a measurement: generator fell behind in phase %s "+
				"(scheduler p99 late %v, achieved/offered %.3f; limits %v, %.2f)",
				ph.Name, h.lateP99, h.ratio, maxLateP99, minRatio)
		}
		switch {
		case ph.Name == "reference":
			ref = pr
			// Peak memory so far: after the fixed-length reference phase,
			// before the ladder, whose length depends on where the knee
			// falls (and with it whether the WAL's in-memory tail grows).
			var rss int64
			for _, sv := range top.servers() {
				b, err := sv.rss()
				if err != nil {
					return nil, err
				}
				rss += b
			}
			res.set("rss_mb", float64(rss)/(1<<20), "MiB")
			res.info("gen_late_p99_ms", ms(h.lateP99), "ms", "generator health: scheduler hand-off lateness")
			res.info("gen_rate_ratio", h.ratio, "ratio", "generator health: achieved / offered send rate")
			res.info("host_steal_pct", stealPct(steal), "%",
				"CPU time the hypervisor took from this machine during the phase; latencies rise with it")
		case ph.Name == "warmup":
		case ph.Name == "direct":
			res.info("direct_write_p50_ms", ms(quantile(pr.latencies(isWrite), 0.5)), "ms", "routed stream sent straight to the leader")
			res.direct = quantile(pr.latencies(isWrite), 0.5)
		default:
			if holds, why := rungHolds(pr); holds {
				res.maxRPS = ph.Rate
			} else if res.knee == "" {
				res.knee = fmt.Sprintf("%s (%.0f/s): %s", ph.Name, ph.Rate, why)
			}
		}
		if ph.rung() && res.knee != "" {
			break // later rungs only push further past the knee
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed

	// End-to-end numbers from the reference phase.
	writes := ref.latencies(isWrite)
	quiet, quietSteal := ref.quietWrites(steal)
	res.set("write_p50_ms", ms(quantile(quiet, 0.5)), "ms")
	res.info("write_p50_all_ms", ms(quantile(writes, 0.5)), "ms", "median over the whole phase, whatever the steal")
	res.info("quiet_writes", float64(len(quiet)), "count",
		fmt.Sprintf("writes in the quietest tenth of the phase (mean steal %.1f %%)", 100*quietSteal))
	res.info("write_p90_ms", ms(quantile(writes, 0.90)), "ms", "not gated: see README")
	res.info("write_p99_ms", ms(quantile(writes, 0.99)), "ms", "not gated: see README")
	res.info("write_samples", float64(len(writes)), "count", "reference-phase writes at "+strconv.FormatFloat(s.refRate, 'f', 0, 64)+"/s")
	if len(s.ladder) > 0 {
		note := fmt.Sprintf("ladder %v/s; all rungs held", s.ladder)
		if res.knee != "" {
			note = "first rung missed: " + res.knee
		}
		res.info("write_max_rps", res.maxRPS, "req/s", note)
	}
	if audits := ref.latencies(isAudit); len(audits) > 0 {
		res.info("audit_p50_ms", ms(quantile(audits, 0.5)), "ms", fmt.Sprintf("%d audits", len(audits)))
		if q, name := tailQuantile(len(audits)); q > 0.5 {
			res.info("audit_"+name+"_ms", ms(quantile(audits, q)), "ms", "highest percentile with ten audits beyond it")
		}
	}
	if reads := ref.latencies(isRead); len(reads) > 0 {
		res.info("read_p50_ms", ms(quantile(reads, 0.5)), "ms", fmt.Sprintf("%d reads via the router", len(reads)))
		res.info("read_p99_ms", ms(quantile(reads, 0.99)), "ms", "")
	}
	if len(lags) > 0 {
		res.info("repl_lag_ms", float64(medianInt(lags))/s.refRate*1000, "ms",
			fmt.Sprintf("median of %d leader-follower seq samples at %.0f writes/s", len(lags), s.refRate))
	}
	res.info("failed_share", float64(t.failed)/float64(max(t.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d requests", t.failed, t.attempted))

	cpu1, err := cpuOf(top.servers())
	if err != nil {
		return nil, err
	}
	acked := t.ok[verbIssue] + t.ok[verbRevoke] + t.ok[verbTransfer]
	res.layers = map[string]float64{
		"drmserver.cpu_us_per_op": us(cpu1-cpu0) / float64(max(t.attempted, 1)),
	}

	// Counters, scraped once at the end of the load.
	counters := map[string]int64{}
	for _, sv := range top.servers() {
		m, err := scrape(sv)
		if err != nil {
			return nil, err
		}
		for _, name := range scrapedCounters {
			counters[name] += m[name]
			res.info(sv.name+"."+name, float64(m[name]), "count", "")
		}
	}
	res.layers["wal.fsyncs_per_op"] = ratio(counters["drm_wal_fsyncs_total"], counters["drm_wal_appends_total"])
	if top.follower != nil {
		res.layers["cluster.fetches_per_kop"] = ratio(counters["drm_repl_fetch_total"]*1000, int64(acked))
		res.layers["cluster.ship_bytes_per_op"] = ratio(counters["drm_repl_shipped_bytes_total"], counters["drm_repl_shipped_frames_total"])
	}
	var hr struct {
		Groups []struct {
			TableBytes int64 `json:"table_bytes"`
		} `json:"groups"`
	}
	if err := top.primary.getJSON("/v1/headroom", &hr); err != nil {
		return nil, err
	}
	var tableBytes int64
	for _, g := range hr.Groups {
		tableBytes += g.TableBytes
	}
	res.layers["headroom.table_bytes"] = float64(tableBytes)

	if err := check(ctx, res, in, top, t, f); err != nil {
		return nil, err
	}
	if traced && len(res.problems) == 0 {
		if err := tracedRun(ctx, s, in, seed, dir, traceOut, res, quantile(writes, 0.5)); err != nil {
			return nil, err
		}
	}
	if traced {
		if top.follower != nil {
			res.layers["cluster.forward_us"] = us(quantile(writes, 0.5) - res.direct)
		}
		res.Metrics = res.layerMetrics()
	}
	return res, nil
}

// tailQuantile picks p90, or p75 when fewer than ten of n samples lie
// beyond p90, or p50.
func tailQuantile(n int) (float64, string) {
	for _, pct := range []int{90, 75} {
		if n-(n*pct+99)/100 >= 10 {
			return float64(pct) / 100, "p" + strconv.Itoa(pct)
		}
	}
	return 0.5, "p50"
}

// rungHolds applies write_max_rps's three conditions to one ladder
// rung: p99 within the server's latency objective (99 % under 250 ms),
// no failures, and no growing backlog (the rung's last quarter of
// writes no slower than its first quarter, beyond noise).
func rungHolds(pr phaseResult) (bool, string) {
	if failed := pr.failures(); failed > 0 {
		return false, fmt.Sprintf("%d failed", failed)
	}
	if p99 := quantile(pr.latencies(isWrite), 0.99); p99 > sloLatency {
		return false, fmt.Sprintf("p99 %v over %v", p99, sloLatency)
	}
	n := len(pr.out)
	first, last := make([]time.Duration, 0, n/4), make([]time.Duration, 0, n/4)
	for i := 0; i < n/4; i++ {
		first = append(first, pr.out[i].lat)
		last = append(last, pr.out[n-1-i].lat)
	}
	sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
	sort.Slice(last, func(i, j int) bool { return last[i] < last[j] })
	a, b := quantile(first, 0.5), quantile(last, 0.5)
	if b > 2*a && b-a > 5*time.Millisecond {
		return false, fmt.Sprintf("backlog grew (median %v in the first quarter, %v in the last)", a, b)
	}
	return true, ""
}

// sloLatency is drmserver's default latency objective threshold
// (slo.DefaultObjectives: 99 % of requests under 250 ms).
const sloLatency = 250 * time.Millisecond

// launch starts the workload's servers over its inputs and times set-up:
// from the first launch until every process is ready (for routed, from
// the leader's launch until the follower, started once the leader is
// ready, holds the priors and the router routes to both peers).
// Each repetition uses fresh ports; routed gives the follower a fresh,
// empty WAL.
func launch(ctx context.Context, s spec, in *inputs, walDir, dir string, f *fleet, rep int) (*topology, time.Duration, error) {
	common := []string{"-corpus", in.corpusPath, "-log-backend", "wal"}
	const timeout = 120 * time.Second
	if !s.routed {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		sv, err := f.start("server", port, append(common, "-log", walDir)...)
		if err != nil {
			return nil, 0, err
		}
		if err := sv.waitUntil(ctx, timeout, "ready", sv.ready); err != nil {
			return nil, 0, err
		}
		return &topology{primary: sv, walDir: walDir, entry: sv.url}, time.Since(start), nil
	}

	lport, fport, rport, err := routedPorts()
	if err != nil {
		return nil, 0, err
	}
	fwal := filepath.Join(dir, fmt.Sprintf("follower-wal-%d", rep))
	start := time.Now()
	leader, err := f.start("leader", lport, append(common, "-role", "leader", "-log", walDir)...)
	if err != nil {
		return nil, 0, err
	}
	// The follower starts once the leader serves: its first fetch then
	// drains the priors at once instead of meeting a refused connection
	// and waiting out a fetch interval, which would make set-up a
	// multiple of the interval rather than recovery plus catch-up.
	if err := leader.waitUntil(ctx, timeout, "ready", leader.ready); err != nil {
		return nil, 0, err
	}
	follower, err := f.start("follower", fport, append(common, "-role", "follower",
		"-leader", leader.url, "-fetch-interval", fetchInterval, "-log", fwal)...)
	if err != nil {
		return nil, 0, err
	}
	if err := follower.waitUntil(ctx, timeout, "holding the priors", func() bool {
		return follower.holds(uint64(in.priors))
	}); err != nil {
		return nil, 0, err
	}
	router, err := f.start("router", rport, "-role", "router", "-peers", leader.url+","+follower.url)
	if err != nil {
		return nil, 0, err
	}
	if err := router.waitUntil(ctx, timeout, "ready", router.ready); err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	if rep < setupReps-1 {
		defer os.RemoveAll(fwal)
	}
	return &topology{primary: leader, follower: follower, router: router, walDir: walDir, entry: router.url}, took, nil
}

// routedPorts picks fresh loopback ports for leader, follower and
// router, assigning the two peer ports so that the router's hash ring
// (FNV-1a over "peer#i") sends single-corpus reads to the follower.
// Every run thus routes reads the same way whatever ports it drew.
func routedPorts() (leader, follower, router int, err error) {
	var p [3]int
	for i := range p {
		if p[i], err = freePort(); err != nil {
			return 0, 0, 0, err
		}
	}
	ring := cluster.NewRing(0)
	a, b := "http://127.0.0.1:"+strconv.Itoa(p[0]), "http://127.0.0.1:"+strconv.Itoa(p[1])
	ring.Add(a)
	ring.Add(b)
	owner, _ := ring.Owner(cluster.KeyForPath("/v1/headroom"))
	if owner == a {
		return p[1], p[0], p[2], nil
	}
	return p[0], p[1], p[2], nil
}

// sampleLag polls leader and follower sequence numbers every 97 ms until
// the returned stop is called, which yields the leader−follower
// distances.
func sampleLag(leader, follower *server) (stop func() []int64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var lags []int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Off the fetch interval's beat, so samples do not phase-lock.
		tick := time.NewTicker(97 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			var l, fr roleInfo
			if leader.getJSON("/v1/repl/role", &l) != nil || follower.getJSON("/v1/repl/role", &fr) != nil {
				continue
			}
			lags = append(lags, max(int64(l.Seq)-int64(fr.Seq), 0))
		}
	}()
	return func() []int64 {
		close(done)
		wg.Wait()
		return lags
	}
}

// scrapedCounters are the /metrics counters recorded beside the timings.
var scrapedCounters = []string{
	"drm_wal_fsyncs_total",
	"drm_wal_appends_total",
	"drm_headroom_checks_total",
	"drm_headroom_rejected_total",
	"drm_repl_fetch_total",
	"drm_repl_shipped_bytes_total",
	"drm_repl_shipped_frames_total",
	"drm_router_forward_total",
}

// scrape reads the server's unlabelled counters from GET /metrics.
func scrape(s *server) (map[string]int64, error) {
	resp, err := ctl.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = int64(v)
		}
	}
	return out, sc.Err()
}

func cpuOf(servers []*server) (time.Duration, error) {
	var total time.Duration
	for _, s := range servers {
		c, err := s.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func medianDur(xs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

func medianInt(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	// Synced, so the copy's writeback does not compete with the server's
	// fsyncs during the load.
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
