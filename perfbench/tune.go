package main

import (
	"fmt"
	"time"

	"rafiki"
)

// tuneTrials is the trial budget per model of one tune_bayes job: with the
// Bayes advisor's Gaussian-process fit growing with every observation, a
// job of this size takes on the order of a second on a 2-core machine.
// warmTrials is the budget of the small job that ends each set-up.
const (
	tuneTrials  = 100
	warmTrials  = 25
	minTuneJobs = 5
)

// bayesJob is a Bayes-advisor CoStudy job over the ensemble's three
// architectures with a per-model trial budget.
func bayesJob(name string, trials int) rafiki.TrainConfig {
	return rafiki.TrainConfig{
		Name: name, Data: "food", Task: rafiki.ImageClassification,
		InputShape: []int{3, 256, 256}, OutputShape: []int{len(classes)},
		Models: ensemble,
		Hyper:  rafiki.HyperConf{MaxTrials: trials, CoStudy: true, Advisor: "bayes"},
	}
}

// tuneRun is what one tuning job measured.
type tuneRun struct {
	setupS, submitMs, jobMs float64
	cpu                     time.Duration
	status                  rafiki.TrainStatus
	err                     error // from Wait: the job ran but failed
}

// runJob boots a System with the job's seed, imports the dataset, runs the
// warm-up job (together the set-up), then times one tuning job from Train to
// Wait. tr, when non-nil, records the setup.* and tune.* spans.
func runJob(sysSeed int64, k int, tr *tracer) (tuneRun, error) {
	var r tuneRun
	t0 := time.Now()
	sp := tr.begin("setup.boot", int64(k), -1)
	sys, err := rafiki.New(rafiki.Options{Seed: sysSeed, NodeCapacity: nodeCapacity})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	defer sys.Close()
	sp = tr.begin("setup.import", int64(k), -1)
	_, err = sys.ImportImages("food", datasetFolders())
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("setup.warmup", int64(k), -1)
	warm, err := sys.Train(bayesJob("warmup", warmTrials))
	if err == nil {
		err = warm.Wait()
	}
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("warm-up: %w", err)
	}
	r.setupS = time.Since(t0).Seconds()

	c0 := processCPU()
	t1 := time.Now()
	sp = tr.begin("tune.train", int64(k), -1)
	job, err := sys.Train(bayesJob("tune", tuneTrials))
	tr.end(sp)
	r.submitMs = float64(time.Since(t1)) / 1e6
	if err != nil {
		return r, err
	}
	sp = tr.begin("tune.wait", int64(k), -1)
	r.err = job.Wait()
	tr.end(sp)
	r.jobMs = float64(time.Since(t1)) / 1e6
	r.cpu = processCPU() - c0
	r.status = job.Status()
	return r, nil
}

// runTune measures tune_bayes: back-to-back jobs (see runJob), each on a
// freshly booted System seeded from --seed and the job's index, until the
// measured time is spent (at least minTuneJobs jobs). Each job's set-up,
// wall and CPU times are scaled to the reference host speed by a
// calibration run just before it (calib.go). A traced run alternates traced and untraced jobs;
// the difference of their medians is the tracing overhead.
func runTune(rep *report, seed int64, measure time.Duration, trace bool, stopFiller func()) error {
	// Tuning keeps both CPUs busy by itself; the idle filler would only
	// compete with it.
	stopFiller()
	var jobTracer *tracer
	if trace {
		jobTracer = newTracer(1 << 12)
	}
	var setupS, jobMs, rawJobMs, calMs, submitMs, best []float64
	var tracedMs, plainMs, tracedCPU, plainCPU []float64
	trials := 0
	cpuMs := 0.0 // scaled to the reference speed
	mem0 := readMem()
	steal0 := readSteal()
	goroutines := sampleGoroutines()
	start := time.Now()
	for k := 0; k < minTuneJobs || time.Since(start) < measure; k++ {
		var tr *tracer
		if k%2 == 0 {
			tr = jobTracer
		}
		cal := calibrate()
		r, err := runJob(seed*1000+int64(k), k, tr)
		rep.Attempted++
		if err != nil {
			return fmt.Errorf("tune job %d: %w", k, err)
		}
		scale := calibRefMs / cal
		ms, jobCPUMs := r.jobMs*scale, float64(r.cpu)/1e6*scale
		calMs = append(calMs, cal)
		setupS = append(setupS, r.setupS*scale)
		submitMs = append(submitMs, r.submitMs)
		rawJobMs = append(rawJobMs, r.jobMs)
		jobMs = append(jobMs, ms)
		cpuMs += jobCPUMs
		if tr != nil {
			tracedMs = append(tracedMs, ms)
			tracedCPU = append(tracedCPU, jobCPUMs*1e3)
		} else {
			plainMs = append(plainMs, ms)
			plainCPU = append(plainCPU, jobCPUMs*1e3)
		}
		st := r.status
		if r.err != nil || !st.Done || st.Finished != st.MaxTrials {
			rep.Failed++
			rep.fail("tune job %d: err=%v done=%v finished %d of %d trials", k, r.err, st.Done, st.Finished, st.MaxTrials)
		}
		trials += st.Finished
		acc := 0.0
		for _, m := range ensemble {
			a := st.BestAccuracy[m]
			if a <= 0 || a > 1 {
				rep.fail("tune job %d: best accuracy of %s is %v", k, m, a)
			}
			acc += a
		}
		best = append(best, acc/float64(len(ensemble)))
	}
	totalJobS := 0.0
	for _, ms := range jobMs {
		totalJobS += ms / 1e3
	}
	gmax := goroutines.finish()
	if trace {
		mem := readMem().sub(mem0)
		setLayerDefaults(rep)
		rep.set("proc.goroutines_max", "count", float64(gmax), len(jobMs))
		p99, _ := percentile(sortedCopy(jobMs), 0.99)
		rep.set("client.p99_ms", "ms", p99, len(jobMs))
		rep.set("trace.overhead_p50_ms", "ms", median(tracedMs)-median(plainMs), len(tracedMs))
		perJob := float64(len(ensemble) * tuneTrials)
		rep.set("trace.overhead_cpu_us", "us", (median(tracedCPU)-median(plainCPU))/perJob, len(tracedCPU))
		rep.set("tune.submit_ms", "ms", median(submitMs), len(submitMs))
		rep.set("tune.trials", "count", float64(trials), len(jobMs))
		rep.set("tune.trials_per_s", "1/s", float64(trials)/max(totalJobS, 1e-9), len(jobMs))
		rep.set("tune.cpu_ms_per_trial", "ms", cpuMs/float64(max(trials, 1)), trials)
		rep.set("tune.job_ms", "ms", median(rawJobMs), len(rawJobMs))
		rep.set("host.calib_ms", "ms", median(calMs), len(calMs))
		rep.set("proc.steal_frac", "frac", readSteal().fracSince(steal0), 1)
		setProcMetrics(rep, mem, trials)
		writeTrace(rep, jobTracer, "tune_bayes", seed)
		return nil
	}
	rep.set("setup_s", "s", median(setupS), len(setupS))
	rep.set("p50_ms", "ms", median(jobMs), len(jobMs))
	rep.set("accuracy", "frac", median(best), len(best))
	rep.set("cpu_us_per_op", "us", cpuMs*1e3/float64(max(trials, 1)), trials)
	rep.set("ok_frac", "frac", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), rep.Attempted)
	return nil
}
