// Command perfbench is the repository's benchmark. It drives a Rafiki System
// from outside, through its public SDK (rafiki.New, ImportImages, Train,
// Deploy, Query, ScaleInference) and its REST server over loopback, under
// four workloads:
//
//	serve_sharded  SDK queries, Poisson arrivals, 8 shards × 2 dispatch planes
//	rest_cached    REST queries over Zipf keys with the prediction cache on,
//	               beside journaled scale writes every 250 ms
//	serve_rl       SDK queries under the actor-critic (rl) scheduler
//	tune_bayes     Bayes-advisor CoStudy tuning jobs
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve_sharded --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 a separate traced run reports the per-layer metrics, and
// spans are written under .bench_build/work/traces. README.md lists every
// metric, what each workload loads and bypasses, and which end-to-end
// metric each layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and its human-readable lines.
type report struct {
	result
	samples map[string]int
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// checkNames verifies the report holds exactly the listed metrics with
// their units.
func (r *report) checkNames(want [][2]string) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("report has %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w[0]]
		if !ok || m.Unit != w[1] {
			return fmt.Errorf("metric %s missing or not in %s", w[0], w[1])
		}
	}
	return nil
}

// fail marks the run incorrect, with the reason on standard error.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// deadline bounds a whole run: a hung program must not hang the benchmark.
const deadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: serve_sharded, rest_cached, serve_rl or tune_bayes")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same payloads and arrival times")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	filler := flag.Bool("idle-filler", false, "internal: run as the benchmark's idle-CPU filler child")
	flag.Parse()
	if *filler {
		runIdleFiller()
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	stopFiller := startIdleFiller()
	exit := func(code int) {
		stopFiller()
		os.Exit(code)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		exit(3)
	})

	env := environment(*seed)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		*workload, *seed, *seconds, *trace, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)

	rep := newReport()
	measure := time.Duration(*seconds) * time.Second
	var err error
	if cfg, ok := serveWorkloads[*workload]; ok {
		err = runServe(rep, cfg, *seed, measure, *trace == 1, stopFiller)
	} else if *workload == "tune_bayes" {
		err = runTune(rep, *seed, measure, *trace == 1, stopFiller)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		exit(1)
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := rep.checkNames(want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		exit(1)
	}

	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	saveResult(*workload, *seed, *trace, env, rep)
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		exit(1)
	}
	stopFiller()
	fmt.Println(string(out))
}

// env is what every saved result records about where it ran.
type env struct {
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// environment captures the run's machine and build identity. The commit is
// the VCS revision stamped into the binary when it was built inside a git
// work tree, else "unknown".
func environment(seed int64) env {
	e := env{Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// saveResult writes the run's metrics, sample counts and environment under
// the work directory; failing to save is reported, not fatal.
func saveResult(workload string, seed int64, trace int, e env, rep *report) {
	dir := workDir + "/results"
	b, err := json.MarshalIndent(struct {
		Workload string         `json:"workload"`
		Trace    int            `json:"trace"`
		Env      env            `json:"env"`
		Result   result         `json:"result"`
		Samples  map[string]int `json:"samples"`
	}{workload, trace, e, rep.result, rep.samples}, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(fmt.Sprintf("%s/%s-seed%d-trace%d.json", dir, workload, seed, trace), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}
}
