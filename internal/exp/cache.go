package exp

// Prediction-cache benchmark harness: replays a Zipfian key stream (the
// skewed query mix a popular deployment sees — a few hot inputs dominate)
// through the wall-clock serving runtime twice, once straight to the
// batching dispatch plane and once through the read-through prediction cache
// (internal/predcache), and reports served QPS for both plus the cache's hit
// rates. cmd/rafiki-bench folds the rows into BENCH_serving.json next to the
// shards × dispatch-groups matrix, and BenchmarkPredictionCache gates them,
// so the cache's speedup trajectory is tracked across PRs like the rest of
// the serving plane.

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/predcache"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// CacheBenchRow is one pass over the Zipfian stream: cache off (every query
// rides the dispatch plane) or on (hot keys are admitted and served from
// memory).
type CacheBenchRow struct {
	Cache bool `json:"cache"`
	// ServedQPS is completed queries per wall second over the whole pass.
	ServedQPS float64 `json:"served_qps"`
	// HitRate is hits over all lookups; HotHitRate restricts the ratio to
	// draws from the hot region (the top HotKeys ranks), counting
	// singleflight-collapsed waits as cache-served.
	HitRate    float64 `json:"hit_rate"`
	HotHitRate float64 `json:"hot_hit_rate"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Admissions uint64  `json:"admissions"`
	Collapsed  uint64  `json:"singleflight_collapsed"`
}

// CacheBenchReport is the machine-readable cache-bench snapshot: the
// workload shape, the off/on rows, and the headline speedup.
type CacheBenchReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Requests   int     `json:"requests"`
	Keys       int     `json:"keys"`
	ZipfS      float64 `json:"zipf_s"`
	HotKeys    int     `json:"hot_keys"`
	// SpeedupX is cache-on served QPS over cache-off.
	SpeedupX float64         `json:"speedup_x"`
	Rows     []CacheBenchRow `json:"rows"`
}

// cacheBenchSeed fixes the Zipfian draw sequence so both passes replay the
// identical key stream.
const cacheBenchSeed = 7

// RunCacheBench measures both passes over one pre-drawn Zipfian stream of
// `requests` keys from a universe of `keys` ranks with exponent s, submitted
// by `submitters` goroutines against an 8-shard, 4-group runtime at
// speedup× wall speed. hotKeys bounds the "hot region" the per-row
// HotHitRate is computed over.
func RunCacheBench(requests, submitters, keys, hotKeys int, s, speedup float64) (*CacheBenchReport, error) {
	rep := &CacheBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Requests:   requests, Keys: keys, ZipfS: s, HotKeys: hotKeys,
	}
	z, err := workload.NewZipf(keys, s, sim.NewRNG(cacheBenchSeed))
	if err != nil {
		return nil, err
	}
	draws := make([]int, requests)
	for i := range draws {
		draws[i] = z.Next()
	}
	payloads := make([][]byte, keys)
	digests := make([]uint64, keys)
	for k := range payloads {
		payloads[k] = []byte(fmt.Sprintf("cache-bench-key-%05d", k))
		h := fnv.New64a()
		h.Write(payloads[k])
		digests[k] = h.Sum64()
	}
	for _, withCache := range []bool{false, true} {
		row, err := runCacheBenchRow(draws, payloads, digests, submitters, hotKeys, speedup, withCache)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	if off := rep.Rows[0].ServedQPS; off > 0 {
		rep.SpeedupX = rep.Rows[1].ServedQPS / off
	}
	return rep, nil
}

// runCacheBenchRow replays the draw sequence once. With the cache on, every
// query goes through GetOrCompute exactly like System.Query's read-through
// path: the compute function submits to the runtime and waits on the future.
func runCacheBenchRow(draws []int, payloads [][]byte, digests []uint64, submitters, hotKeys int, speedup float64, withCache bool) (CacheBenchRow, error) {
	row := CacheBenchRow{Cache: withCache}
	d, err := infer.NewDeployment(
		[]string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		[]int{1, 2, 4, 8, 16}, 0.25, 1)
	if err != nil {
		return row, err
	}
	d.Replicas = []int{servingBenchReplicas, servingBenchReplicas, servingBenchReplicas}
	rt, err := infer.NewRuntime(d, &infer.SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
		infer.RuntimeConfig{
			Timeline:       &sim.WallTimeline{Speedup: speedup},
			QueueCap:       1 << 30,
			Shards:         8,
			DispatchGroups: 4,
			Combine:        blankResults,
		})
	if err != nil {
		return row, err
	}
	defer rt.Close()

	var cache *predcache.Cache
	if withCache {
		cache = predcache.New(predcache.Config{
			Capacity: len(payloads), TTL: 300, AdmitThreshold: 2, HalfLife: 30,
		})
	}
	query := func(k int) (predcache.Outcome, error) {
		if cache == nil {
			f, err := rt.Submit(payloads[k])
			if err != nil {
				return predcache.ComputedCold, err
			}
			_, err = f.Wait()
			f.Release()
			return predcache.ComputedCold, err
		}
		_, out, err := cache.GetOrCompute(digests[k], payloads[k], func() (any, error) {
			f, err := rt.Submit(payloads[k])
			if err != nil {
				return nil, err
			}
			v, err := f.Wait()
			f.Release()
			return v, err
		})
		return out, err
	}

	type hotCount struct{ served, total uint64 }
	hot := make([]hotCount, submitters)
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	start := time.Now()
	for sub := 0; sub < submitters; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			for i := sub; i < len(draws); i += submitters {
				k := draws[i]
				out, err := query(k)
				if err != nil {
					errs <- err
					return
				}
				if cache != nil && k < hotKeys {
					hot[sub].total++
					if out == predcache.Hit || out == predcache.Collapsed {
						hot[sub].served++
					}
				}
			}
		}(sub)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return row, err
	default:
	}

	row.ServedQPS = float64(len(draws)) / elapsed
	if cache != nil {
		st := cache.Snapshot()
		row.HitRate = st.HitRate
		row.Hits, row.Misses = st.Hits, st.Misses
		row.Admissions, row.Collapsed = st.Admissions, st.Collapsed
		var served, total uint64
		for _, h := range hot {
			served += h.served
			total += h.total
		}
		if total > 0 {
			row.HotHitRate = float64(served) / float64(total)
		}
	}
	return row, nil
}
