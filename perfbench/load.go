package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// reqTimeout bounds one request; a request past it counts as failed.
const reqTimeout = 10 * time.Second

// outcome is what happened to one scheduled request.
type outcome struct {
	late   time.Duration // scheduler hand-off minus due time
	lat    time.Duration // completion minus due time
	status int           // 0 on a transport error or timeout
}

// phaseResult is one driven phase: an outcome per request, in schedule
// order.
type phaseResult struct {
	ph   phase
	out  []outcome
	t0   time.Time     // when the first request was due
	sent time.Duration // first due time to last hand-off
}

// drive runs one phase open-loop against base: a single scheduler hands
// each request to the senders at its due time, whatever is still in
// flight, and nproc senders each hold one keep-alive connection. Latency
// is measured from the due time, so a stall also counts against every
// request queued behind it.
func drive(ctx context.Context, base string, ph phase) phaseResult {
	t0 := time.Now().Add(10 * time.Millisecond)
	res := phaseResult{ph: ph, out: make([]outcome, len(ph.Reqs)), t0: t0}
	queue := make(chan int, len(ph.Reqs)) // sized to the schedule: the scheduler never blocks
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout: reqTimeout,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			}
			defer client.CloseIdleConnections()
			for i := range queue {
				r := ph.Reqs[i]
				res.out[i].status = send(ctx, client, base, r)
				res.out[i].lat = time.Since(t0.Add(r.At))
			}
		}()
	}
	var lastSend time.Time
	for i, r := range ph.Reqs {
		if ctx.Err() != nil {
			break // interrupted: the run is abandoned
		}
		due := t0.Add(r.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lastSend = time.Now()
		res.out[i].late = lastSend.Sub(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.sent = lastSend.Sub(t0)
	return res
}

// send issues one request and returns its status (0 on error).
func send(ctx context.Context, client *http.Client, base string, r request) int {
	method := http.MethodGet
	var body io.Reader
	if r.isWrite() {
		method, body = http.MethodPost, bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+r.path(), body)
	if err != nil {
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// tally counts a phase's outcomes by verb.
type tally struct {
	attempted, failed int
	writes            int            // write requests sent
	ok                map[string]int // 2xx answers per verb
	refused           map[int]int    // designed-refusal answers per status
	failedIn          map[string]int // failures per phase
}

func newTally() tally {
	return tally{ok: map[string]int{}, refused: map[int]int{}, failedIn: map[string]int{}}
}

func (t *tally) add(pr phaseResult) {
	for i, o := range pr.out {
		r := pr.ph.Reqs[i]
		t.attempted++
		if r.isWrite() {
			t.writes++
		}
		switch {
		case o.status != r.Want:
			t.failed++
			t.failedIn[pr.ph.Name]++
		case o.status/100 == 2:
			t.ok[r.Verb]++
		default:
			t.refused[o.status]++
		}
	}
}

// failures counts the phase's requests that did not get the status they
// were generated to get.
func (pr phaseResult) failures() int {
	n := 0
	for i, o := range pr.out {
		if o.status != pr.ph.Reqs[i].Want {
			n++
		}
	}
	return n
}

// latencies returns the latencies of the phase's requests that verb
// selects, failed ones included (a failure misses every latency limit,
// so it sorts last).
func (pr phaseResult) latencies(sel func(request) bool) []time.Duration {
	var out []time.Duration
	for i, o := range pr.out {
		if !sel(pr.ph.Reqs[i]) {
			continue
		}
		lat := o.lat
		if o.status != pr.ph.Reqs[i].Want {
			lat = reqTimeout
		}
		out = append(out, lat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func isWrite(r request) bool { return r.isWrite() }
func isAudit(r request) bool { return r.Verb == verbAudit }
func isRead(r request) bool  { return r.Verb == verbRead }

// health is the generator's own record: how late the scheduler handed
// requests off, and the rate it achieved against the rate offered.
type health struct {
	lateP99 time.Duration
	ratio   float64
}

func (pr phaseResult) health() health {
	late := make([]time.Duration, len(pr.out))
	for i, o := range pr.out {
		late[i] = o.late
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	h := health{lateP99: quantile(late, 0.99), ratio: 1}
	if n := len(pr.out); n > 1 && pr.sent > 0 {
		offered := pr.ph.Reqs[n-1].At - pr.ph.Reqs[0].At
		h.ratio = offered.Seconds() / (pr.sent - pr.ph.Reqs[0].At).Seconds()
	}
	return h
}

// Generator health limits: past either, the run is invalid rather than a
// measurement of the server.
const (
	maxLateP99 = 50 * time.Millisecond
	minRatio   = 0.98
)

func (h health) ok() bool { return h.lateP99 <= maxLateP99 && h.ratio >= minRatio }

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
