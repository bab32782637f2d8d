package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafiki"
	"rafiki/internal/infer"
	"rafiki/internal/rest"
)

// ensemble is the paper's 3-ConvNet serving ensemble (Section 7.2), and
// pinnedAccuracy the validation accuracies it is deployed with. Pinning
// them keeps served accuracy a function of the scheduler alone: re-training
// would otherwise pick different checkpoints from run to run.
var (
	ensemble       = []string{"inception_v3", "inception_v4", "inception_resnet_v2"}
	pinnedAccuracy = map[string]float64{"inception_v3": 0.92, "inception_v4": 0.93, "inception_resnet_v2": 0.94}
)

// Serving settings shared by every serving workload: the wall clock runs
// 1000× faster than the profiled GPU latencies, and each model gets 4
// replicas — at these settings the process, not the simulated GPU, is the
// bottleneck on a 2-core machine.
const (
	serveSpeedup = 1000
	serveReplica = 4
	// trainTrials is the random-advisor budget per model of the set-up
	// training job: the deployed accuracies are pinned, so training only
	// has to leave a checkpoint per model.
	trainTrials = 4
	imagesPer   = 200
	// systemSeed seeds every serving System the same way, so the program —
	// its training draws and the rl policy's initial weights — is the same
	// in every run; --seed draws only the traffic it is sent.
	systemSeed = 1
	// nodeCapacity makes room on the 3 default nodes for the training
	// job's 12 containers plus the deployment's master and up to 5
	// replicas per model.
	nodeCapacity = 16
	// latencyLimitMs and maxFailFrac are the ladder's acceptance limits.
	latencyLimitMs = 50.0
	maxFailFrac    = 0.001
)

// serveConfig describes one serving workload.
type serveConfig struct {
	name   string
	policy string
	shards int
	groups int
	cache  bool
	rest   bool // drive POST /api/v1/query over loopback instead of System.Query
	// writes boots the System with a journal and toggles a replica count
	// every writeEvery through REST while each phase runs.
	writes bool
	// zipfSpace > 0 draws keys from Zipf(zipfS) over a catalogue of that
	// many payloads; otherwise every request carries a fresh payload. The
	// catalogue is the same for every seed, so which payloads are hot — and
	// so the accuracy the hot ones are served at — does not change with the
	// seed; the seed draws the traffic over it.
	zipfSpace uint64
	zipfS     float64
	nominal   float64 // requests per second of the measured phase
	// ladderBase is the ladder's first rate (see ladderRates).
	ladderBase float64
}

// writeEvery is the control-plane write period of the rest_cached workload.
const writeEvery = 250 * time.Millisecond

// deployment is one booted serving stack.
type deployment struct {
	cfg    serveConfig
	sys    *rafiki.System
	job    *rafiki.InferenceJob
	id     string
	dir    string
	srv    *http.Server
	base   string
	client *http.Client
	tr     *tracer // nil unless the phase records spans
	phases int     // phases started, so request ids stay distinct across a run
	// REST counters, kept by the benchmark's wrapper around the handler.
	status429, status5xx atomic.Int64
}

// workDir is where the benchmark keeps journals and trace output, inside
// the checkout's build directory.
const workDir = ".bench_build/work"

// setupServe boots a System, trains the ensemble, deploys it under the
// workload's spec and, for REST workloads, serves it over loopback.
// Each step is a setup.* span when tr is non-nil.
func setupServe(cfg serveConfig, tr *tracer) (*deployment, error) {
	d := &deployment{cfg: cfg}
	var extras []rafiki.Option
	if cfg.writes {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, "journal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		extras = append(extras, rafiki.WithJournal(dir))
	}
	var err error
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		sp := tr.begin("setup."+name, -1, -1)
		err = f()
		tr.end(sp)
		if err != nil {
			err = fmt.Errorf("setup %s: %w", name, err)
		}
	}
	step("boot", func() error {
		d.sys, err = rafiki.New(rafiki.Options{Seed: systemSeed, ServeSpeedup: serveSpeedup, NodeCapacity: nodeCapacity}, extras...)
		return err
	})
	step("import", func() error {
		_, err := d.sys.ImportImages("food", datasetFolders())
		return err
	})
	var models []rafiki.ModelInstance
	step("train", func() error {
		job, err := d.sys.Train(rafiki.TrainConfig{
			Name: "serve", Data: "food", Task: rafiki.ImageClassification,
			InputShape: []int{3, 256, 256}, OutputShape: []int{len(classes)},
			Models: ensemble,
			Hyper:  rafiki.HyperConf{MaxTrials: trainTrials, CoStudy: true, Advisor: "random"},
		})
		if err != nil {
			return err
		}
		if err := job.Wait(); err != nil {
			return err
		}
		models, err = d.sys.GetModels(job.ID)
		return err
	})
	step("deploy", func() error {
		for i := range models {
			models[i].Accuracy = pinnedAccuracy[models[i].Model]
		}
		spec := rafiki.DeploymentSpec{
			Models:         models,
			Policy:         cfg.policy,
			Replicas:       rafiki.ReplicaBounds{Min: serveReplica},
			Shards:         cfg.shards,
			DispatchGroups: cfg.groups,
		}
		if cfg.cache {
			spec.Cache = &rafiki.CacheSpec{Enabled: true}
		}
		d.job, err = d.sys.Deploy(spec)
		if err == nil {
			d.id = d.job.ID
		}
		return err
	})
	if cfg.rest {
		step("listen", d.listen)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// listen serves the System's REST API on a loopback port behind the
// benchmark's wrapper, and builds a client limited to gomaxprocs
// keep-alive connections.
func (d *deployment) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	api := rest.NewServer(d.sys)
	d.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.serveHTTP(api, w, r)
	})}
	go func() { _ = d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	conns := gomaxprocs()
	d.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return nil
}

// Trace headers carry a request's id and its client span from the
// benchmark's client to its server-side wrapper; the wrapper strips them,
// so the program sees only the generated payload.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// statusWriter records the response status of one request.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// serveHTTP is the benchmark's wrapper around the REST handler: it counts
// refusal and server-error statuses and, when tracing, records rest.serve.
func (d *deployment) serveHTTP(api http.Handler, w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	r.Header.Del(hdrReq)
	r.Header.Del(hdrSpan)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	sp := d.tr.begin("rest.serve", req, parent)
	api.ServeHTTP(sw, r)
	d.tr.end(sp)
	switch {
	case sw.code == http.StatusTooManyRequests:
		d.status429.Add(1)
	case sw.code >= 500:
		d.status5xx.Add(1)
	}
}

// close tears the stack down and removes its journal.
func (d *deployment) close() {
	if d.srv != nil {
		_ = d.srv.Shutdown(context.Background())
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.sys != nil {
		_ = d.sys.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// reply is the part of a query answer the benchmark validates.
type reply struct {
	Label string            `json:"label"`
	Votes map[string]string `json:"votes"`
}

// query sends one payload through the workload's front door. req and
// parent tie its spans to the request's gen.send span.
func (d *deployment) query(p []byte, req int64, parent int) (reply, status, error) {
	if !d.cfg.rest {
		sp := d.tr.begin("sdk.query", req, parent)
		res, err := d.sys.Query(d.id, p)
		d.tr.end(sp)
		if err != nil {
			if errors.Is(err, infer.ErrQueueFull) {
				return reply{}, statusRefused, nil
			}
			return reply{}, statusError, err
		}
		return reply{Label: res.Label, Votes: res.Votes}, statusOK, nil
	}
	body, err := json.Marshal(rest.QueryRequest{Image: string(p)})
	if err != nil {
		return reply{}, statusError, err
	}
	var out reply
	sp := d.tr.begin("client.call", req, parent)
	code, err := d.post("/api/v1/query/"+d.id, body, req, sp, &out)
	d.tr.end(sp)
	switch {
	case err != nil:
		return reply{}, statusError, err
	case code == http.StatusTooManyRequests:
		return reply{}, statusRefused, nil
	case code != http.StatusOK:
		return reply{}, statusError, fmt.Errorf("query: HTTP %d", code)
	}
	return out, statusOK, nil
}

// post sends a JSON body and decodes a 200 reply into out.
func (d *deployment) post(path string, body []byte, req int64, span int, out any) (int, error) {
	hr, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if d.tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.Itoa(span))
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// validator checks every successful reply. A label outside the vocabulary,
// a vote set other than the policy allows, or a payload answered with two
// different labels under the same vote set is a mismatch and fails the run.
type validator struct {
	deployed map[string]bool
	vocab    map[string]bool
	fullSet  bool // greedy: every reply carries every deployed model's vote
	// repeats is set when payloads recur (Zipf keys): the first label seen
	// per (key, vote set) is what later replies must repeat.
	repeats bool

	mu         sync.Mutex
	seen       map[string]string
	mismatches atomic.Int64
	checked    atomic.Int64
	firstErr   atomic.Pointer[string]
}

func newValidator(fullSet, repeats bool) *validator {
	v := &validator{deployed: map[string]bool{}, vocab: map[string]bool{}, fullSet: fullSet, repeats: repeats, seen: map[string]string{}}
	for _, m := range ensemble {
		v.deployed[m] = true
	}
	for _, c := range classes {
		v.vocab[c] = true
	}
	return v
}

func (v *validator) check(key uint64, r reply) {
	v.checked.Add(1)
	if err := v.validate(key, r); err != nil {
		v.mismatches.Add(1)
		msg := err.Error()
		v.firstErr.CompareAndSwap(nil, &msg)
	}
}

func (v *validator) validate(key uint64, r reply) error {
	if !v.vocab[r.Label] {
		return fmt.Errorf("label %q not in the vocabulary", r.Label)
	}
	if len(r.Votes) == 0 {
		return fmt.Errorf("reply for key %x has no votes", key)
	}
	names := make([]string, 0, len(r.Votes))
	for m, lbl := range r.Votes {
		if !v.deployed[m] {
			return fmt.Errorf("vote from undeployed model %q", m)
		}
		if !v.vocab[lbl] {
			return fmt.Errorf("model %s voted %q, not in the vocabulary", m, lbl)
		}
		names = append(names, m)
	}
	if v.fullSet && len(names) != len(v.deployed) {
		return fmt.Errorf("greedy reply carries %d votes, want %d", len(names), len(v.deployed))
	}
	if !v.repeats {
		return nil
	}
	sort.Strings(names)
	k := strconv.FormatUint(key, 16) + "|" + strings.Join(names, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.seen[k]; ok && prev != r.Label {
		return fmt.Errorf("key %x answered %q after %q under votes %v", key, r.Label, prev, names)
	}
	v.seen[k] = r.Label
	return nil
}

// writer toggles one model's replica count between serveReplica and
// serveReplica+1 every writeEvery through POST .../scale, timing each call
// as control.write, until stop is closed.
func (d *deployment) writer(stop <-chan struct{}) (lat []float64, failed int) {
	t := time.NewTicker(writeEvery)
	defer t.Stop()
	up := true
	for {
		select {
		case <-stop:
			return lat, failed
		case <-t.C:
		}
		n := serveReplica
		if up {
			n++
		}
		up = !up
		body, _ := json.Marshal(rest.ScaleRequest{Model: ensemble[0], Replicas: n})
		var out rest.ScaleResponse
		start := time.Now()
		sp := d.tr.begin("control.write", -1, -1)
		code, err := d.post("/api/v1/inference/"+d.id+"/scale", body, -1, sp, &out)
		d.tr.end(sp)
		if err != nil || code != http.StatusOK || out.Replicas[ensemble[0]] != n {
			failed++
			continue
		}
		lat = append(lat, float64(time.Since(start))/1e6)
	}
}
