package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rafiki"
	"rafiki/internal/predcache"
)

// endToEnd lists every end-to-end metric and its unit; an untraced run
// reports all of them on every workload.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"cpu_us_per_op", "us"}, {"accuracy", "frac"}, {"ok_frac", "frac"},
}

// perLayer lists every per-layer metric and its unit. A traced run reports
// all of them on every workload; a layer the workload bypasses reads 0.
var perLayer = [][2]string{
	{"client.p99_ms", "ms"}, {"ladder.max_qps", "1/s"},
	{"gen.late_p99_ms", "ms"}, {"gen.inflight_max", "count"}, {"proc.steal_frac", "frac"},
	{"self.gen_send_p50_us", "us"},
	{"rest.serve_p50_us", "us"}, {"rest.serve_p99_us", "us"}, {"rest.wire_p50_us", "us"},
	{"rest.status_429", "count"}, {"rest.status_5xx", "count"},
	{"sdk.query_p50_us", "us"}, {"sdk.query_p99_us", "us"}, {"sdk.gap_p50_us", "us"},
	{"cache.hit_rate", "frac"}, {"cache.hot_hit_rate", "frac"}, {"cache.admissions", "count"},
	{"cache.collapsed", "count"}, {"cache.stale_evictions", "count"},
	{"cache.capacity_evictions", "count"}, {"cache.invalidations", "count"},
	{"infer.engine_p50_ms", "ms"}, {"infer.engine_p99_ms", "ms"}, {"infer.batch_mean", "count"},
	{"infer.dispatches_per_kq", "count"}, {"infer.stolen_frac", "frac"}, {"infer.overdue_frac", "frac"},
	{"infer.dropped", "count"}, {"infer.queue_len_max", "count"}, {"infer.exec_busy_frac", "frac"},
	{"infer.exec_queue_max", "count"}, {"infer.exec_rejected", "count"}, {"infer.backend_errors", "count"},
	{"rl.steps_per_kq", "count"}, {"infer.reward", "reward"}, {"rl.models_per_query", "count"},
	{"journal.records", "count"}, {"journal.fsyncs", "count"}, {"journal.fsync_p99_ms", "ms"},
	{"journal.bytes_per_write", "B"}, {"control.write_p50_ms", "ms"},
	{"tune.submit_ms", "ms"}, {"tune.trials", "count"}, {"tune.trials_per_s", "1/s"},
	{"tune.cpu_ms_per_trial", "ms"}, {"tune.job_ms", "ms"}, {"host.calib_ms", "ms"},
	{"proc.alloc_kb_per_op", "KiB"}, {"proc.gc_per_kop", "count"}, {"proc.gc_pause_ms", "ms"},
	{"proc.goroutines_max", "count"},
	{"trace.overhead_p50_ms", "ms"}, {"trace.overhead_cpu_us", "us"}, {"trace.spans", "count"},
}

// setLayerDefaults zeroes every per-layer metric; the workload then sets
// the ones its layers produce.
func setLayerDefaults(rep *report) {
	for _, m := range perLayer {
		rep.set(m[0], m[1], 0, 0)
	}
}

// setProcMetrics reports the Go runtime's cost per operation.
func setProcMetrics(rep *report, mem memDelta, ops int) {
	n := max(ops, 1)
	rep.set("proc.alloc_kb_per_op", "KiB", float64(mem.alloc)/1024/float64(n), ops)
	rep.set("proc.gc_per_kop", "count", float64(mem.numGC)*1000/float64(n), ops)
	rep.set("proc.gc_pause_ms", "ms", float64(mem.pauseNs)/1e6, int(mem.numGC))
}

// writeTrace saves the spans, prints each span name's self and total time,
// and reports the span count.
func writeTrace(rep *report, tr *tracer, workload string, seed int64) {
	self, total := selfTimes(tr), durations(tr)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# span %-14s n=%-7d self_p50=%.1fus total_p50=%.1fus\n", n, len(self[n]), median(self[n]), median(total[n]))
	}
	rep.set("trace.spans", "count", float64(len(tr.recorded())), len(tr.recorded()))
	if n := tr.dropped.Load(); n > 0 {
		fmt.Printf("# trace: %d spans dropped (table full)\n", n)
	}
	path, err := writeSpans(tr, workDir+"/traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err != nil {
		rep.fail("writing spans: %v", err)
		return
	}
	fmt.Printf("# spans written to %s\n", path)
}

// goroutineSampler keeps the process's peak goroutine count.
type goroutineSampler struct {
	peak int
	stop chan struct{}
	done chan struct{}
}

func sampleGoroutines() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.peak = max(g.peak, runtime.NumGoroutine())
			}
		}
	}()
	return g
}

// finish stops sampling and returns the peak.
func (g *goroutineSampler) finish() int {
	close(g.stop)
	<-g.done
	return g.peak
}

// statsSampler polls a deployment's Stats while a traced phase runs,
// keeping the gauges' peaks and the executor pools' mean busy share.
type statsSampler struct {
	queueMax, execQueueMax int
	busy, workers          int
	stop                   chan struct{}
	done                   sync.WaitGroup
}

func sampleStats(job *rafiki.InferenceJob) *statsSampler {
	s := &statsSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			st := job.Stats()
			s.queueMax = max(s.queueMax, st.QueueLen)
			eq := 0
			for m := range st.ExecWorkers {
				s.busy += st.ExecBusy[m]
				s.workers += st.ExecWorkers[m]
				eq += st.ExecQueueDepth[m]
			}
			s.execQueueMax = max(s.execQueueMax, eq)
		}
	}()
	return s
}

func (s *statsSampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// traceServe is the traced run of a serving workload: the nominal phase
// once untraced and once traced for half the measured time each, then the
// ladder. It reports the per-layer metrics of the traced phase, the
// difference between the two phases as the tracing overhead, the untraced
// phase's p99 and the ladder's highest passing rate.
func traceServe(rep *report, d *deployment, seed int64, measure time.Duration, v *validator, tr *tracer, stopFiller func()) error {
	cfg := d.cfg
	dur := measure / 2
	plain := d.phase(seed, "nominal", cfg.nominal, dur, v, nil)
	rep.Attempted += plain.sent + len(plain.writeMs) + plain.writeFailed
	rep.Failed += plain.refused + plain.errors + plain.writeFailed

	d.tr = tr
	ex := &phaseExtras{}
	st0 := d.job.Stats()
	rl0 := d.job.RLSteps()
	sampler := sampleStats(d.job)
	goroutines := sampleGoroutines()
	p := d.phase(seed, "traced", cfg.nominal, dur, v, ex)
	sampler.finish()
	gmax := goroutines.finish()
	st1 := d.job.Stats()
	d.tr = nil
	rep.Attempted += p.sent + len(p.writeMs) + p.writeFailed
	rep.Failed += p.refused + p.errors + p.writeFailed
	capacity, rungs := maxRate(rep, d, seed, v, stopFiller)
	checkValidator(rep, v)

	setLayerDefaults(rep)
	rep.set("ladder.max_qps", "1/s", capacity, rungs)
	p99s, tail := windowQuantiles(plain, pctWindow(cfg.nominal), 0.99)
	p99 := median(p99s)
	if tail < minTail {
		rep.fail("nominal phase: a window's p99 rests on %d tail samples", tail)
	}
	rep.set("client.p99_ms", "ms", p99, plain.ok)
	late99, _ := percentile(sortedCopy(p.lateMs), 0.99)
	rep.set("gen.late_p99_ms", "ms", late99, len(p.lateMs))
	rep.set("gen.inflight_max", "count", float64(p.inMax), len(p.inflight))
	rep.set("proc.steal_frac", "frac", p.steal, 1)

	quietMedian := func(x *phaseStats) float64 {
		m, _ := windowQuantiles(x, pctWindow(cfg.nominal), 0.5)
		v, _ := percentile(sortedCopy(m), quietShare)
		return v
	}
	plainP50, tracedP50 := quietMedian(plain), quietMedian(p)
	rep.set("trace.overhead_p50_ms", "ms", tracedP50-plainP50, p.ok)
	cpuPer := func(x *phaseStats) float64 { return float64(x.cpu) / 1e3 / float64(max(x.ok, 1)) }
	rep.set("trace.overhead_cpu_us", "us", cpuPer(p)-cpuPer(plain), p.ok)

	self, durs := selfTimes(tr), durations(tr)
	pct := func(xs []float64, q float64) float64 {
		v, _ := percentile(sortedCopy(xs), q)
		return v
	}
	rep.set("self.gen_send_p50_us", "us", median(self["gen.send"]), len(self["gen.send"]))
	engineP50 := st1.P50Latency * 1e3 / serveSpeedup
	rep.set("infer.engine_p50_ms", "ms", engineP50, st1.Served-st0.Served)
	rep.set("infer.engine_p99_ms", "ms", st1.P99Latency*1e3/serveSpeedup, st1.Served-st0.Served)
	if cfg.rest {
		n := len(durs["rest.serve"])
		rep.set("rest.serve_p50_us", "us", pct(durs["rest.serve"], 0.5), n)
		rep.set("rest.serve_p99_us", "us", pct(durs["rest.serve"], 0.99), n)
		rep.set("rest.wire_p50_us", "us", median(self["client.call"]), len(self["client.call"]))
		rep.set("rest.status_429", "count", float64(d.status429.Load()), n)
		rep.set("rest.status_5xx", "count", float64(d.status5xx.Load()), n)
	} else {
		n := len(durs["sdk.query"])
		q50 := pct(durs["sdk.query"], 0.5)
		rep.set("sdk.query_p50_us", "us", q50, n)
		rep.set("sdk.query_p99_us", "us", pct(durs["sdk.query"], 0.99), n)
		rep.set("sdk.gap_p50_us", "us", q50-engineP50*1e3, n)
	}

	served := st1.Served - st0.Served
	kq := float64(max(served, 1)) / 1000
	dispatched, batched := 0, 0
	for size, c := range st1.BatchSizeHist {
		c -= st0.BatchSizeHist[size]
		dispatched += c
		batched += c * size
	}
	rep.set("infer.batch_mean", "count", float64(batched)/float64(max(dispatched, 1)), dispatched)
	rep.set("infer.dispatches_per_kq", "count", float64(st1.Dispatches-st0.Dispatches)/kq, served)
	rep.set("infer.stolen_frac", "frac", float64(st1.Stolen-st0.Stolen)/float64(max(served, 1)), served)
	rep.set("infer.overdue_frac", "frac", float64(st1.Overdue-st0.Overdue)/float64(max(served, 1)), served)
	rep.set("infer.dropped", "count", float64(st1.Dropped-st0.Dropped), served)
	rep.set("infer.queue_len_max", "count", float64(sampler.queueMax), served)
	rep.set("infer.exec_busy_frac", "frac", float64(sampler.busy)/float64(max(sampler.workers, 1)), served)
	rep.set("infer.exec_queue_max", "count", float64(sampler.execQueueMax), served)
	rep.set("infer.exec_rejected", "count", float64(st1.ExecRejected-st0.ExecRejected), served)
	rep.set("infer.backend_errors", "count", float64(st1.BackendErrors-st0.BackendErrors), served)
	rep.set("infer.reward", "reward", st1.Reward, served)
	rep.set("proc.goroutines_max", "count", float64(gmax), served)
	setProcMetrics(rep, p.mem, p.ok)

	if cfg.policy == rafiki.PolicyRL {
		rep.set("rl.steps_per_kq", "count", float64(d.job.RLSteps()-rl0)/kq, served)
	}
	rep.set("rl.models_per_query", "count", float64(ex.votes.Load())/float64(max(p.ok, 1)), p.ok)

	if st1.Cache != nil && st0.Cache != nil {
		setCacheMetrics(rep, *st0.Cache, *st1.Cache, ex.repeats.Load())
	}
	if cfg.writes {
		rep.set("control.write_p50_ms", "ms", median(p.writeMs), len(p.writeMs))
	}
	if js := d.sys.Stats().Journal; js != nil {
		rep.set("journal.records", "count", float64(js.Records), 1)
		rep.set("journal.fsyncs", "count", float64(js.Fsyncs), 1)
		rep.set("journal.fsync_p99_ms", "ms", js.FsyncP99Ms, int(js.Fsyncs))
		rep.set("journal.bytes_per_write", "B", float64(js.Bytes)/float64(max(js.Records, 1)), int(js.Records))
		if !js.ChainOK {
			rep.fail("journal chain verification failed")
		}
	}
	writeTrace(rep, tr, cfg.name, seed)
	return nil
}

// setCacheMetrics reports the prediction cache's work over a phase. The
// hot-key hit rate divides hits by the requests whose key had already been
// requested in the phase: the reuse the cache could have served at most.
func setCacheMetrics(rep *report, a, b predcache.Stats, repeats int64) {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	lookups := int(hits + misses)
	rep.set("cache.hit_rate", "frac", float64(hits)/float64(max(lookups, 1)), lookups)
	rep.set("cache.hot_hit_rate", "frac", float64(hits)/float64(max(repeats, 1)), int(repeats))
	rep.set("cache.admissions", "count", float64(b.Admissions-a.Admissions), lookups)
	rep.set("cache.collapsed", "count", float64(b.Collapsed-a.Collapsed), lookups)
	rep.set("cache.stale_evictions", "count", float64(b.StaleEvictions-a.StaleEvictions), lookups)
	rep.set("cache.capacity_evictions", "count", float64(b.CapacityEvictions-a.CapacityEvictions), lookups)
	rep.set("cache.invalidations", "count", float64(b.Invalidations-a.Invalidations), lookups)
}
