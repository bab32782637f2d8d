package exp

// Serving-plane benchmark harness (DESIGN.md §10): drives real concurrent
// wall-clock submissions through the batching Runtime across a
// shards × dispatch-groups matrix and reports submitted QPS (fan-in), served
// QPS (drain) and the executed batch-size mean (the stealing observable).
// Both the BenchmarkParallelDispatch gate and cmd/rafiki-bench's
// machine-readable BENCH_serving.json emitter run through here, so the
// numbers tracked across PRs and the numbers gating a change are the same.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/nn"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// ServingBenchRow is one (shards, dispatch groups, backend) configuration's
// measured serving throughput.
type ServingBenchRow struct {
	Shards int `json:"shards"`
	Groups int `json:"dispatch_groups"`
	// Backend is the execution tier the row ran on: "sim" (profiled pacing)
	// or "nn" (real in-process forward passes on the executor pools).
	Backend string `json:"backend"`
	// GOMAXPROCS is the scheduler-thread count the row ran under — the
	// multi-core axis of the matrix. Rows at 1 measure single-core drain;
	// higher values measure how dispatch-plane parallelism converts cores
	// into served QPS (bounded, of course, by the machine's actual cores).
	GOMAXPROCS int `json:"gomaxprocs"`
	// SubmittedQPS is accepted submissions per wall second over the submit
	// phase — the fan-in rate the sharded queue layer sustains.
	SubmittedQPS float64 `json:"submitted_qps"`
	// ServedQPS is completed requests per wall second to the last future
	// resolution — the rate the dispatch planes actually drain.
	ServedQPS float64 `json:"served_qps"`
	// BatchSizeMean is the mean executed batch size; Stolen counts requests
	// work-stealing pulled across shards to fill batches.
	BatchSizeMean float64 `json:"batch_size_mean"`
	Stolen        int     `json:"stolen"`
	Served        int     `json:"served"`
	Dispatches    int     `json:"dispatches"`
	// MaxGoroutines is the peak process goroutine count sampled during the
	// run — the observable that batch execution stays on the bounded
	// per-model pools, O(replicas + planes + submitters), instead of
	// spawning one goroutine per dispatch.
	MaxGoroutines int `json:"max_goroutines"`
}

// ServingBenchReport is the machine-readable serving-perf snapshot
// (BENCH_serving.json): the environment it ran under plus one row per
// configuration.
type ServingBenchReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Requests   int               `json:"requests"`
	Rows       []ServingBenchRow `json:"rows"`
	// CoreScaling is the derived multi-core ratio: served QPS of the largest
	// sim configuration at the highest GOMAXPROCS value divided by the same
	// configuration at the lowest — >1 means adding scheduler threads adds
	// drain throughput; <1 means cross-core serialization eats the cores
	// (the regression the sharded metric plane and per-model pool locks
	// remove). 0 when the matrix ran at a single GOMAXPROCS value.
	CoreScaling float64 `json:"core_scaling,omitempty"`
	// Cache, when present, is the prediction-cache pass over the Zipfian
	// stream (RunCacheBench): cmd/rafiki-bench attaches it so one artifact
	// tracks the dispatch matrix and the cache speedup together.
	Cache *CacheBenchReport `json:"cache,omitempty"`
}

// servingBenchReplicas is the per-model replica count of the bench
// deployment: enough pool width that several dispatch planes can hold
// leases at once, so drain parallelism — not model capacity — is measured.
const servingBenchReplicas = 4

// RunServingBenchRow measures one (shards, groups) configuration on the
// default sim tier at the ambient GOMAXPROCS. See RunServingBenchRowProcs.
func RunServingBenchRow(requests, submitters, shards, groups int, speedup float64) (ServingBenchRow, error) {
	return RunServingBenchRowProcs(requests, submitters, shards, groups, 0, speedup, "sim")
}

// RunServingBenchRowBackend measures one (shards, groups, backend)
// configuration at the ambient GOMAXPROCS. See RunServingBenchRowProcs.
func RunServingBenchRowBackend(requests, submitters, shards, groups int, speedup float64, backendMode string) (ServingBenchRow, error) {
	return RunServingBenchRowProcs(requests, submitters, shards, groups, 0, speedup, backendMode)
}

// benchModels is the bench deployment's ensemble.
var benchModels = []string{"inception_v3", "inception_v4", "inception_resnet_v2"}

// encodeBenchPayload is the nn tier's featurizer: byte counts folded into 8
// buckets (the bench payload is tiny; the forward pass, not the encode, is
// what the row measures).
func encodeBenchPayload(p any) ([]float64, error) {
	b, ok := p.([]byte)
	if !ok {
		return nil, fmt.Errorf("exp: bench payload is %T, not []byte", p)
	}
	x := make([]float64, 8)
	for _, c := range b {
		x[int(c)%8]++
	}
	return x, nil
}

// blankResults is the bench runtimes' combiner: throughput is the
// measurement, so every request resolves with a nil result.
func blankResults(ids []uint64, _ []any, _ []string, _ [][]any) ([]any, error) {
	return make([]any, len(ids)), nil
}

// RunServingBenchRowProcs measures one (shards, groups, gomaxprocs, backend)
// configuration: submitters goroutines push `requests` total payloads through
// a three-ConvNet ensemble runtime (profiled latencies at speedup× wall
// speed) and every future is awaited then released back to the completion
// pool. backendMode "sim" paces profiled latencies on the executor pools;
// "nn" runs real per-model forward passes on them. procs > 0 pins
// runtime.GOMAXPROCS for the row's duration (restored afterwards); 0 keeps
// the ambient setting. The row's MaxGoroutines samples the process-wide
// peak, gating the bounded-pool property.
func RunServingBenchRowProcs(requests, submitters, shards, groups, procs int, speedup float64, backendMode string) (ServingBenchRow, error) {
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	row := ServingBenchRow{Shards: shards, Groups: groups, Backend: backendMode,
		GOMAXPROCS: runtime.GOMAXPROCS(0)}
	d, err := infer.NewDeployment(benchModels, []int{1, 2, 4, 8, 16}, 0.25, 1)
	if err != nil {
		return row, err
	}
	d.Replicas = []int{servingBenchReplicas, servingBenchReplicas, servingBenchReplicas}
	cfg := infer.RuntimeConfig{
		Timeline:       &sim.WallTimeline{Speedup: speedup},
		QueueCap:       1 << 30,
		Shards:         shards,
		DispatchGroups: groups,
		// The rows measure drain throughput, not saturation: the engine
		// frees replica leases at profiled (virtual) finish times while the
		// sim tier paces passes in wall time, so at speedup 1000 the pool
		// queue has to absorb that skew for a whole row — worst case one
		// pass per request (4096 × 4 workers ≥ 16000). The pools still
		// bound the goroutine count; only the queue is roomy.
		ExecQueueFactor: 4096,
		Combine:         blankResults,
	}
	switch backendMode {
	case "sim":
	case "nn":
		nets := make(map[string]*nn.MLP, len(benchModels))
		rng := sim.NewRNG(1)
		for _, name := range benchModels {
			nets[name] = nn.NewMLP([]int{8, 16, 4}, nn.ReLU, nn.Linear, rng.SplitNamed(name))
		}
		backend, err := infer.NewNNBackend(encodeBenchPayload, nets)
		if err != nil {
			return row, err
		}
		cfg.Backend = backend
		// Throughput is the measurement; the first model's argmaxes stand in
		// for the voted results.
		cfg.Combine = func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
			return preds[0], nil
		}
	default:
		return row, fmt.Errorf("exp: unknown bench backend %q", backendMode)
	}
	rt, err := infer.NewRuntime(d, &infer.SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), cfg)
	if err != nil {
		return row, err
	}
	defer rt.Close()

	// Sample the process goroutine peak while the row runs.
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	maxGoroutines := runtime.NumGoroutine()
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			if g := runtime.NumGoroutine(); g > maxGoroutines {
				maxGoroutines = g
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Box the payload into an interface once: converting a []byte argument
	// per Submit call would heap-allocate the slice header per request and
	// swamp the pipeline's own allocation profile.
	var payload any = []byte("q")
	futs := make([][]infer.Future, submitters)
	errs := make(chan error, submitters)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n := requests / submitters
			if s < requests%submitters {
				n++
			}
			futs[s] = make([]infer.Future, 0, n)
			for i := 0; i < n; i++ {
				f, err := rt.Submit(payload)
				if err != nil {
					errs <- err
					return
				}
				futs[s] = append(futs[s], f)
			}
		}(s)
	}
	wg.Wait()
	submitElapsed := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return row, err
	default:
	}
	for _, fs := range futs {
		for _, f := range fs {
			if _, err := f.Wait(); err != nil {
				return row, err
			}
			f.Release()
		}
	}
	total := time.Since(start).Seconds()
	close(stopSample)
	sampleWG.Wait()
	row.MaxGoroutines = maxGoroutines

	st := rt.Stats()
	if st.Served < requests {
		return row, fmt.Errorf("exp: serving bench served %d of %d", st.Served, requests)
	}
	row.SubmittedQPS = float64(requests) / submitElapsed
	row.ServedQPS = float64(requests) / total
	row.BatchSizeMean = st.BatchSizeMean
	row.Stolen = st.Stolen
	row.Served = st.Served
	row.Dispatches = st.Dispatches
	return row, nil
}

// RunServingBench measures the full matrix — every shard count crossed with
// every dispatch-group count on the sim tier at the first GOMAXPROCS value,
// then re-runs the largest sim configuration at each remaining GOMAXPROCS
// value (the multi-core scaling axis) and on the real nn tier, so one
// artifact tracks dispatch-plane scaling, core scaling, and what real
// execution costs against paced simulation. A nil/empty procs runs
// everything at the ambient GOMAXPROCS.
func RunServingBench(requests, submitters int, shards, groups, procs []int, speedup float64) (*ServingBenchReport, error) {
	rep := &ServingBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Requests: requests}
	if len(procs) == 0 {
		procs = []int{0}
	}
	for _, sh := range shards {
		for _, g := range groups {
			row, err := RunServingBenchRowProcs(requests, submitters, sh, g, procs[0], speedup, "sim")
			if err != nil {
				return nil, fmt.Errorf("exp: serving bench shards=%d groups=%d: %w", sh, g, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	sh, g := shards[len(shards)-1], groups[len(groups)-1]
	for _, p := range procs[1:] {
		row, err := RunServingBenchRowProcs(requests, submitters, sh, g, p, speedup, "sim")
		if err != nil {
			return nil, fmt.Errorf("exp: serving bench gomaxprocs=%d: %w", p, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.CoreScaling = CoreScalingOf(rep.Rows, sh, g)
	row, err := RunServingBenchRowProcs(requests, submitters, sh, g, procs[0], speedup, "nn")
	if err != nil {
		return nil, fmt.Errorf("exp: serving bench backend=nn: %w", err)
	}
	rep.Rows = append(rep.Rows, row)
	return rep, nil
}

// CoreScalingOf derives the multi-core scaling ratio from a row set: served
// QPS of the (shards, groups) sim configuration at its highest measured
// GOMAXPROCS divided by the same configuration at its lowest. 0 when the
// rows cover fewer than two GOMAXPROCS values for that configuration.
func CoreScalingOf(rows []ServingBenchRow, shards, groups int) float64 {
	loProcs, hiProcs := 0, 0
	var loQPS, hiQPS float64
	for _, row := range rows {
		if row.Shards != shards || row.Groups != groups || row.Backend != "sim" {
			continue
		}
		if loProcs == 0 || row.GOMAXPROCS < loProcs {
			loProcs, loQPS = row.GOMAXPROCS, row.ServedQPS
		}
		if row.GOMAXPROCS > hiProcs {
			hiProcs, hiQPS = row.GOMAXPROCS, row.ServedQPS
		}
	}
	if loProcs == 0 || hiProcs <= loProcs || loQPS <= 0 {
		return 0
	}
	return hiQPS / loQPS
}

// CoreScalingAxis reports the GOMAXPROCS endpoints the scaling ratio of a
// (shards, groups) sim configuration spans — the values a gate must re-run
// to re-derive the ratio. Both are 0 when the rows cover fewer than two
// GOMAXPROCS values for that configuration.
func CoreScalingAxis(rows []ServingBenchRow, shards, groups int) (loProcs, hiProcs int) {
	for _, row := range rows {
		if row.Shards != shards || row.Groups != groups || row.Backend != "sim" {
			continue
		}
		if loProcs == 0 || row.GOMAXPROCS < loProcs {
			loProcs = row.GOMAXPROCS
		}
		if row.GOMAXPROCS > hiProcs {
			hiProcs = row.GOMAXPROCS
		}
	}
	if hiProcs <= loProcs {
		return 0, 0
	}
	return loProcs, hiProcs
}
