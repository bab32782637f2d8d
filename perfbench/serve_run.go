package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rafiki"
)

// serveWorkloads are the serving workloads. The rates were fixed from
// measurements of the parent commit on a 2-core machine: each nominal rate
// sits near a third of the workload's knee, where latency still describes
// the program rather than a queue, and each ladder starts near 0.6 of the
// knee and reaches 2.5 times its first rate.
var serveWorkloads = map[string]serveConfig{
	"serve_sharded": {
		name: "serve_sharded", policy: rafiki.PolicyGreedy, shards: 8, groups: 2,
		nominal: 5000, ladderBase: 10000,
	},
	"rest_cached": {
		name: "rest_cached", policy: rafiki.PolicyGreedy, shards: 1, groups: 1,
		cache: true, rest: true, writes: true,
		zipfSpace: 1 << 15, zipfS: 1.1,
		nominal: 1000, ladderBase: 1600,
	},
	"serve_rl": {
		name: "serve_rl", policy: rafiki.PolicyRL, shards: 1, groups: 1,
		nominal: 5000, ladderBase: 10000,
	},
}

// The ladder (traced runs only): ladderRungs rates, each ladderStep times
// the one before, climbed ladderStride rungs at a time until a rung fails
// and then one rung at a time (see climb). Each rung runs rungLength.
const (
	ladderStep   = 1.05
	ladderRungs  = 20
	ladderStride = 3
	rungLength   = time.Second
	ladderRuns   = 12 // rung runs one climb may make
)

// Set-up runs setups times, each ending with warmupQueries closed-loop
// queries from warmupCallers callers.
const (
	setups        = 3
	warmupQueries = 1000
	warmupCallers = 32
)

// pctWindow is the window the nominal phase's latency quantiles are taken
// over: a quarter second, or long enough for about 1200 requests at lower
// rates, so that each window's p99 has ten samples beyond it.
//
// p50_ms is the quietShare quantile of the phase's window medians: the
// median latency of the quieter windows. The host this benchmark was built
// on stalls its virtual CPUs for milliseconds at a time when its other
// tenants are busy, and those stalls lifted the median window by up to 4×
// for minutes at a time; the quieter windows still show the latency the
// program delivers. A program change that slows every request moves every
// window, the quieter ones included. Tails and stalls are reported
// per-layer (client.p99_ms, gen.late_p99_ms, proc.steal_frac).
const quietShare = 0.1

func pctWindow(rate float64) time.Duration {
	return time.Duration(max(0.25, 1200/rate) * float64(time.Second))
}

// runServe measures one serving workload. Set-up (boot, import, train,
// deploy, warm-up) runs setups times and reports its median; the last stack
// is then measured at the nominal rate for the whole measured time. A
// traced run instead measures the nominal phase twice, untraced and traced,
// then climbs the ladder, and reports the per-layer metrics.
func runServe(rep *report, cfg serveConfig, seed int64, measure time.Duration, trace bool, stopFiller func()) error {
	var setupTimes []float64
	var d *deployment
	var tr *tracer
	if trace {
		// Room for the set-up spans and up to three spans per request of
		// the traced phase, which runs half the measured time.
		tr = newTracer(4096 + int(3*1.2*cfg.nominal*measure.Seconds()/2))
	}
	v := newValidator(cfg.policy == rafiki.PolicyGreedy, cfg.zipfSpace > 0)
	for k := 0; k < setups; k++ {
		start := time.Now()
		dep, err := setupServe(cfg, tr)
		if err != nil {
			return err
		}
		sp := tr.begin("setup.warmup", -1, -1)
		ok := runClosed(warmupQueries, warmupCallers, dep.request(seed, "warmup", nil, v, nil))
		tr.end(sp)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if ok < warmupQueries {
			dep.close()
			return fmt.Errorf("warm-up: %d of %d queries failed", warmupQueries-ok, warmupQueries)
		}
		if k < setups-1 {
			dep.close()
			continue
		}
		d = dep
	}
	defer d.close()
	if trace {
		return traceServe(rep, d, seed, measure, v, tr, stopFiller)
	}
	rep.set("setup_s", "s", median(setupTimes), len(setupTimes))
	nom := d.phase(seed, "nominal", cfg.nominal, measure, v, nil)
	rep.Attempted += nom.sent + len(nom.writeMs) + nom.writeFailed
	rep.Failed += nom.refused + nom.errors + nom.writeFailed
	medians, _ := windowQuantiles(nom, pctWindow(cfg.nominal), 0.5)
	if len(medians) == 0 {
		return fmt.Errorf("measured time %v is shorter than one %v window", measure, pctWindow(cfg.nominal))
	}
	p50, _ := percentile(sortedCopy(medians), quietShare)
	p99s, _ := windowQuantiles(nom, pctWindow(cfg.nominal), 0.99)
	p99 := median(p99s)
	late99, _ := percentile(sortedCopy(nom.lateMs), 0.99)
	fmt.Printf("# nominal rate=%.0f sent=%d ok=%d p50=%.3fms p99=%.3fms late_p99=%.3fms steal=%.3f\n",
		cfg.nominal, nom.sent, nom.ok, p50, p99, late99, nom.steal)
	rep.set("p50_ms", "ms", p50, nom.ok)
	rep.set("accuracy", "frac", float64(nom.correct)/float64(max(nom.ok, 1)), nom.ok)
	rep.set("cpu_us_per_op", "us", float64(nom.cpu)/1e3/float64(max(nom.ok, 1)), nom.ok)
	ops := nom.sent + len(nom.writeMs) + nom.writeFailed
	rep.set("ok_frac", "frac", float64(nom.ok+len(nom.writeMs))/float64(ops), ops)
	checkValidator(rep, v)
	return nil
}

// maxRate climbs the workload's ladder with the idle filler stopped and
// returns the highest rate that passed rungPasses (see climb), and the rung
// runs made. When even the first rung fails, it reads one step below it.
func maxRate(rep *report, d *deployment, seed int64, v *validator, stopFiller func()) (float64, int) {
	stopFiller()
	cfg := d.cfg
	rates := ladderRates(cfg.ladderBase, ladderStep, ladderRungs)
	best, runs := climb(len(rates), ladderStride, ladderRuns, func(i int) bool {
		p := d.phase(seed, fmt.Sprintf("rung-%d", i), rates[i], rungLength, v, nil)
		pass := rungPasses(p, latencyLimitMs, maxFailFrac)
		p99, _ := percentile(p.latencies(), 0.99)
		fmt.Printf("# rung %d rate=%.0f sent=%d ok=%d refused=%d errors=%d p99=%.2fms growing=%v steal=%.3f pass=%v\n",
			i, rates[i], p.sent, p.ok, p.refused, p.errors, p99, backlogGrowing(p.inflight, rates[i]), p.steal, pass)
		rep.Attempted += p.sent + len(p.writeMs) + p.writeFailed
		rep.Failed += p.writeFailed
		if pass {
			// Refusals past the knee are the backpressure the ladder looks
			// for; only failed queries on passing rungs count against the run.
			rep.Failed += p.refused + p.errors
		}
		return pass
	})
	if best < 0 {
		return cfg.ladderBase / ladderStep, runs
	}
	return rates[best], runs
}

// checkValidator fails the run on any response mismatch.
func checkValidator(rep *report, v *validator) {
	if n := v.mismatches.Load(); n > 0 {
		rep.fail("%d of %d replies failed validation; first: %s", n, v.checked.Load(), *v.firstErr.Load())
	}
	if v.checked.Load() == 0 {
		rep.fail("no reply was validated")
	}
}

// phaseExtras collects what a traced phase needs beyond phaseStats.
type phaseExtras struct {
	votes   atomic.Int64 // votes summed over successful replies
	repeats atomic.Int64 // requests whose key was already requested this phase
	seen    sync.Map
}

// request returns the per-request function of one phase: it derives the
// payload of request i from the seed, sends it through the workload's front
// door inside a gen.send span, and validates the reply.
func (d *deployment) request(seed int64, stream string, keys []uint64, v *validator, ex *phaseExtras) request {
	var errOnce sync.Once
	d.phases++
	reqBase := int64(d.phases) << 32 // request ids stay distinct across a run's phases
	return func(i int, due time.Time) (status, bool) {
		var key uint64
		if keys != nil {
			key = inputKey(0, "keys", keys[i])
			if ex != nil {
				if _, dup := ex.seen.LoadOrStore(key, struct{}{}); dup {
					ex.repeats.Add(1)
				}
			}
		} else {
			key = inputKey(seed, stream, uint64(i))
		}
		p, truth := payload(key)
		req := reqBase + int64(i)
		sp := d.tr.beginAt("gen.send", req, due)
		r, st, err := d.query(p, req, sp)
		d.tr.end(sp)
		if err != nil {
			errOnce.Do(func() { fmt.Printf("# %s: first error: %v\n", stream, err) })
		}
		if st != statusOK {
			return st, false
		}
		v.check(key, r)
		if ex != nil {
			ex.votes.Add(int64(len(r.Votes)))
		}
		return st, r.Label == classes[truth]
	}
}

// phase runs one open-loop phase of the workload at rate for dur, with the
// control-plane writer running beside it when the workload writes.
func (d *deployment) phase(seed int64, stream string, rate float64, dur time.Duration, v *validator, ex *phaseExtras) *phaseStats {
	offs := poissonOffsets(seed, stream, rate, dur)
	var keys []uint64
	if d.cfg.zipfSpace > 0 {
		keys = zipfKeys(seed, stream, d.cfg.zipfS, d.cfg.zipfSpace, len(offs))
	}
	do := d.request(seed, stream, keys, v, ex)
	if !d.cfg.writes {
		return runOpen(rate, dur, offs, do)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var wlat []float64
	var wfailed int
	go func() {
		defer close(done)
		wlat, wfailed = d.writer(stop)
	}()
	p := runOpen(rate, dur, offs, do)
	close(stop)
	<-done
	p.writeMs, p.writeFailed = wlat, wfailed
	return p
}
