package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// status is how one request ended.
type status uint8

const (
	statusPending status = iota
	statusOK
	// statusRefused is backpressure: a full queue (SDK ErrQueueFull, HTTP 429).
	statusRefused
	statusError
)

// sampleEvery is the in-flight sampling period of a phase: fine enough to
// see a backlog build within a half-second ladder rung.
const sampleEvery = 10 * time.Millisecond

// phaseStats is what one open-loop phase measured. Latency runs from each
// request's due time, so a stalled generator or client shows up as latency
// of the requests queued behind the stall, and lateness reports the stall.
type phaseStats struct {
	rate    float64
	dur     time.Duration // length of the send schedule
	sent    int
	ok      int
	refused int
	errors  int
	correct int64
	// byDue is every request's latency in send order (NaN unless it
	// succeeded), beside its due offset, for windowed percentiles.
	byDue    []float64
	offsets  []time.Duration
	lateMs   []float64 // every request, due → handed to the system
	inflight []int     // sampled outstanding requests
	inMax    int64
	wall     time.Duration // first due → last reply
	cpu      time.Duration // process user+sys over wall
	mem      memDelta
	steal    float64
	// writeMs and writeFailed are the control-plane writes made beside the
	// phase (rest_cached only).
	writeMs     []float64
	writeFailed int
}

// latencies returns the successful requests' latencies, sorted.
func (p *phaseStats) latencies() []float64 {
	out := make([]float64, 0, p.ok)
	for _, l := range p.byDue {
		if !math.IsNaN(l) {
			out = append(out, l)
		}
	}
	sort.Float64s(out)
	return out
}

// failFrac is errors plus refusals over requests sent.
func (p *phaseStats) failFrac() float64 {
	if p.sent == 0 {
		return 0
	}
	return float64(p.refused+p.errors) / float64(p.sent)
}

// request performs request i, due at due, and reports how it ended and
// whether its answer was correct. It runs on its own goroutine.
type request func(i int, due time.Time) (st status, correct bool)

// maxInflight caps outstanding requests so a stalled system cannot exhaust
// memory; a request due while the cap is reached is counted as refused.
const maxInflight = 1 << 16

// runOpen sends one request per offset on an open-loop schedule and waits
// for every reply. Each request runs on its own goroutine because the calls
// block; the generator only sleeps until the next request is due.
func runOpen(rate float64, dur time.Duration, offsets []time.Duration, do request) *phaseStats {
	n := len(offsets)
	p := &phaseStats{rate: rate, dur: dur, sent: n, lateMs: make([]float64, n), offsets: offsets}
	lat := make([]int64, n)
	sts := make([]status, n)
	var inflight atomic.Int64
	var correct atomic.Int64
	var wg sync.WaitGroup

	stopSample := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var s []int
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stopSample:
				sampled <- s
				return
			case <-t.C:
				s = append(s, int(inflight.Load()))
			}
		}
	}()

	cpu0, steal0 := processCPU(), readSteal()
	mem0 := readMem()
	start := time.Now()
	var inMax int64
	for i, off := range offsets {
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		due := start.Add(off)
		p.lateMs[i] = float64(time.Since(due)) / 1e6
		cur := inflight.Add(1)
		if cur > inMax {
			inMax = cur
		}
		if cur > maxInflight {
			inflight.Add(-1)
			sts[i] = statusRefused
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			st, ok := do(i, due)
			lat[i] = int64(time.Since(due))
			sts[i] = st
			if ok {
				correct.Add(1)
			}
			inflight.Add(-1)
		}(i, due)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	p.mem = readMem().sub(mem0)
	p.steal = readSteal().fracSince(steal0)
	close(stopSample)
	p.inflight = <-sampled
	p.inMax = inMax
	p.correct = correct.Load()
	p.byDue = make([]float64, n)
	for i, st := range sts {
		p.byDue[i] = math.NaN()
		switch st {
		case statusOK:
			p.ok++
			p.byDue[i] = float64(lat[i]) / 1e6
		case statusRefused:
			p.refused++
		default:
			p.errors++
		}
	}
	return p
}

// windowQuantiles splits a phase into whole windows by due time and returns
// each window's q-quantile, with the smallest tail any window's estimate
// rests on. A trailing part-window is left out.
func windowQuantiles(p *phaseStats, window time.Duration, q float64) (perWindow []float64, minTailSeen int) {
	n := int(p.dur / window)
	if n == 0 {
		return nil, 0
	}
	buckets := make([][]float64, n)
	for i, off := range p.offsets {
		w := int(off / window)
		if w < n && !math.IsNaN(p.byDue[i]) {
			buckets[w] = append(buckets[w], p.byDue[i])
		}
	}
	perWindow = make([]float64, 0, n)
	minTailSeen = -1
	for _, b := range buckets {
		v, tail := percentile(sortedCopy(b), q)
		perWindow = append(perWindow, v)
		if minTailSeen < 0 || tail < minTailSeen {
			minTailSeen = tail
		}
	}
	return perWindow, minTailSeen
}

// runClosed sends n requests from a fixed set of callers, each sending its
// next request when the previous one returns; it reports how many succeeded.
func runClosed(n, callers int, do request) (ok int) {
	var next, okN atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if st, _ := do(i, time.Now()); st == statusOK {
					okN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(okN.Load())
}

// backlogGrowing reports whether the sampled in-flight count climbed over a
// phase: the mean of its last third exceeds the first third's by more than
// the requests 5 ms of arrivals bring (and at least 8). Below capacity the
// count hovers; past it the queue — and so the count — grows without bound.
func backlogGrowing(samples []int, rate float64) bool {
	k := len(samples) / 3
	if k == 0 {
		return false
	}
	first, last := 0.0, 0.0
	for i := 0; i < k; i++ {
		first += float64(samples[i])
		last += float64(samples[len(samples)-k+i])
	}
	first /= float64(k)
	last /= float64(k)
	slack := rate * 0.005
	if slack < 8 {
		slack = 8
	}
	return last-first > slack
}

// rungPasses is the ladder's acceptance rule for one rate: p99 latency
// within the limit (a percentile that lacks ten tail samples cannot pass),
// failures within the allowed share, and no growing backlog.
func rungPasses(p *phaseStats, limitMs, maxFail float64) bool {
	if p.failFrac() > maxFail {
		return false
	}
	p99, tail := percentile(p.latencies(), 0.99)
	if tail < minTail || p99 > limitMs {
		return false
	}
	return !backlogGrowing(p.inflight, p.rate)
}

// ladderRates returns the fixed geometric ladder: n rungs starting at base,
// each step times the one before.
func ladderRates(base, step float64, n int) []float64 {
	out := make([]float64, n)
	r := base
	for i := range out {
		out[i] = r
		r *= step
	}
	return out
}

// climb finds the highest passing rung of an n-rung ladder. It jumps stride
// rungs at a time until a rung fails, then walks single rungs up from the
// last pass. A rung fails only when it fails twice running, so one
// transient stall does not end the climb. At most maxRuns rung runs are
// made; once they are spent every further rung counts as failed. It returns
// the index of the highest passing rung (-1 for none) and the runs made.
func climb(n, stride, maxRuns int, try func(i int) bool) (best, runs int) {
	passes := func(i int) bool {
		for attempt := 0; attempt < 2 && runs < maxRuns; attempt++ {
			runs++
			if try(i) {
				return true
			}
		}
		return false
	}
	best = -1
	i := 0
	for ; i < n && passes(i); i += stride {
		best = i
	}
	for j := best + 1; j < min(i, n); j++ {
		if !passes(j) {
			break
		}
		best = j
	}
	return best, runs
}

// gomaxprocs reports the scheduler's processor count.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
