package main

import (
	"sort"
	"sync"
	"time"
)

// stealSample is one reading of the host's CPU tick counters.
type stealSample struct {
	at           time.Time
	total, steal int64
}

// sampleSteal reads the host's CPU counters every 100 ms until the
// returned stop is called, which yields the readings.
func sampleSteal() (stop func() []stealSample) {
	var out []stealSample
	take := func() {
		if total, steal, err := hostCPU(); err == nil {
			out = append(out, stealSample{time.Now(), total, steal})
		}
	}
	take()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				take()
			}
		}
	}()
	return func() []stealSample {
		close(done)
		wg.Wait()
		take()
		return out
	}
}

// stealPct is the share of the host's CPU time the hypervisor took
// between the first and last samples, in percent.
func stealPct(samples []stealSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	a, b := samples[0], samples[len(samples)-1]
	return 100 * float64(b.steal-a.steal) / float64(max(b.total-a.total, 1))
}

// quietWrites returns the latencies of the writes due in the phase's
// quietest stretches: the intervals between consecutive samples whose
// steal share is at most the lowest decile of all the intervals'
// shares. On a quiet host that is nearly every interval; on a busy one
// it keeps the tenth of the phase the hypervisor left most alone, so
// the number tracks the program rather than the neighbours. Short
// intervals find the quiet stretches between the hypervisor's bursts
// that one-second windows average away. It also returns the mean steal
// share of the kept intervals.
//
// The share is steal over all ticks, idle included, so an interval
// counts as quiet by what the hypervisor took, not by what the server
// did. README.md gives the check: with a stall injected into the server,
// the filter kept the writes due during it at least as often as the
// others, so it does not hide a stall a change introduces.
func (pr phaseResult) quietWrites(samples []stealSample) ([]time.Duration, float64) {
	if len(samples) < 2 {
		return pr.latencies(isWrite), 0
	}
	shares := make([]float64, len(samples)-1)
	for i := range shares {
		a, b := samples[i], samples[i+1]
		if b.total > a.total {
			shares[i] = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit := sorted[len(sorted)/10]
	var sum float64
	kept := 0
	for _, sh := range shares {
		if sh <= limit {
			sum += sh
			kept++
		}
	}
	lat := pr.latencies(func(r request) bool {
		if !r.isWrite() {
			return false
		}
		due := pr.t0.Add(r.At)
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(due) })
		return i > 0 && i < len(samples) && shares[i-1] <= limit
	})
	return lat, sum / float64(kept)
}

// timedSetup is one set-up's duration and the share of the host's CPU
// time the hypervisor took during it.
type timedSetup struct {
	took  time.Duration
	steal float64
}

// quietSetup is the median duration of the third of the set-ups with the
// lowest steal share, for the reason quietWrites gives: a set-up takes
// tens to hundreds of milliseconds, and one burst of steal can double it.
func quietSetup(setups []timedSetup) time.Duration {
	shares := make([]float64, len(setups))
	for i, st := range setups {
		shares[i] = st.steal
	}
	sort.Float64s(shares)
	limit := shares[(len(shares)-1)/3]
	var kept []time.Duration
	for _, st := range setups {
		if st.steal <= limit {
			kept = append(kept, st.took)
		}
	}
	return medianDur(kept)
}
