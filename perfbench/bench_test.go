package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		p        float64
		want     float64
		wantTail int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	}
	for _, c := range cases {
		v, tail := percentile(xs, c.p)
		if v != c.want || tail != c.wantTail {
			t.Errorf("percentile(1..1000, %v) = %v tail %d, want %v tail %d", c.p, v, tail, c.want, c.wantTail)
		}
	}
	// 999 samples cannot support a p99: the tail falls below minTail.
	if _, tail := percentile(xs[:999], 0.99); tail >= minTail {
		t.Errorf("p99 of 999 samples has tail %d, want < %d", tail, minTail)
	}
	if v, tail := percentile(nil, 0.5); v != 0 || tail != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, tail)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// phaseOf builds phaseStats for the ladder rule from the successful
// requests' latencies, the failures and the sampled in-flight counts.
func phaseOf(lat []float64, failed int, inflight []int, rate float64) *phaseStats {
	return &phaseStats{rate: rate, dur: time.Second, sent: len(lat) + failed, ok: len(lat), errors: failed, byDue: lat, inflight: inflight}
}

func flat(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestRungPasses(t *testing.T) {
	steady := []int{10, 12, 9, 11, 10, 12, 11, 10, 9}
	lat := flat(2000, 2)
	if !rungPasses(phaseOf(lat, 0, steady, 2000), 50, 0.001) {
		t.Error("a fast, steady rung should pass")
	}
	slow := append(flat(1970, 2), flat(30, 80)...) // 1.5% of requests over the limit
	if rungPasses(phaseOf(slow, 0, steady, 2000), 50, 0.001) {
		t.Error("p99 over the limit should fail the rung")
	}
	if rungPasses(phaseOf(lat, 3, steady, 2000), 50, 0.001) {
		t.Error("3 failures in 2003 exceeds 0.001 and should fail the rung")
	}
	growing := []int{10, 12, 11, 40, 60, 80, 120, 150, 190}
	if rungPasses(phaseOf(lat, 0, growing, 2000), 50, 0.001) {
		t.Error("a growing backlog should fail the rung")
	}
	if rungPasses(phaseOf(flat(500, 2), 0, steady, 500), 50, 0.001) {
		t.Error("a p99 with fewer than ten tail samples should fail the rung")
	}
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing([]int{5, 6, 5, 30, 31, 29, 6, 5, 6}, 1000) {
		t.Error("a burst that drains is not growth")
	}
	if !backlogGrowing([]int{5, 6, 5, 20, 25, 30, 40, 45, 50}, 1000) {
		t.Error("a climbing count is growth")
	}
	if backlogGrowing([]int{5, 9}, 1000) {
		t.Error("too few samples to judge should not count as growth")
	}
	// The slack scales with the rate: 40 more outstanding is noise at
	// 10k/s (slack 50) but growth at 1k/s (slack 8).
	s := []int{100, 100, 100, 120, 130, 140, 140, 140, 140}
	if backlogGrowing(s, 10000) || !backlogGrowing(s, 1000) {
		t.Error("growth slack does not follow the rate")
	}
}

func TestClimb(t *testing.T) {
	knee := func(k int) func(int) bool { return func(i int) bool { return i <= k } }
	cases := []struct {
		name       string
		n, stride  int
		maxRuns    int
		try        func(int) bool
		wantBest   int
		wantRunsLE int
	}{
		// Coarse: 0 3 6 9 pass, 12 fails twice; fine: 10 passes, 11 fails twice.
		{"knee at 10", 20, 3, 100, knee(10), 10, 9},
		{"knee on a stride", 20, 3, 100, knee(9), 9, 10},
		{"first rung fails", 20, 3, 100, knee(-1), -1, 2},
		{"every rung passes", 7, 3, 100, knee(100), 6, 7},
		{"budget spent", 20, 3, 3, knee(100), 6, 3},
	}
	for _, c := range cases {
		best, runs := climb(c.n, c.stride, c.maxRuns, c.try)
		if best != c.wantBest || runs > c.wantRunsLE {
			t.Errorf("%s: climb = best %d after %d runs, want best %d within %d runs", c.name, best, runs, c.wantBest, c.wantRunsLE)
		}
	}
	// One transient failure is retried, not taken as the knee.
	fails := map[int]int{6: 1}
	best, _ := climb(20, 3, 100, func(i int) bool {
		if fails[i] > 0 {
			fails[i]--
			return false
		}
		return i <= 10
	})
	if best != 10 {
		t.Errorf("a single transient failure ended the climb at %d, want 10", best)
	}
}

func TestLadderRates(t *testing.T) {
	r := ladderRates(1000, 1.05, 4)
	want := []float64{1000, 1050, 1102.5, 1157.625}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-9 {
			t.Fatalf("ladderRates = %v, want %v", r, want)
		}
	}
}

func TestRunOpenTimesFromDueTime(t *testing.T) {
	// Three requests due 0, 1 and 2 ms apart. Each runs on its own
	// goroutine, so the first one's 30 ms wait does not delay the others:
	// only its own latency grows.
	offs := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var calls atomic.Int64
	p := runOpen(1000, 3*time.Millisecond, offs, func(i int, due time.Time) (status, bool) {
		calls.Add(1)
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
			return statusOK, true
		}
		if i == 2 {
			return statusRefused, false
		}
		return statusOK, false
	})
	if calls.Load() != 3 || p.sent != 3 || p.ok != 2 || p.refused != 1 || p.correct != 1 {
		t.Fatalf("phase = sent %d ok %d refused %d correct %d", p.sent, p.ok, p.refused, p.correct)
	}
	if p.byDue[0] < 30 {
		t.Errorf("request 0 latency %.2fms, want >= 30ms from its due time", p.byDue[0])
	}
	if p.byDue[1] >= 30 {
		t.Errorf("request 1 latency %.2fms was charged with request 0's wait", p.byDue[1])
	}
	if !math.IsNaN(p.byDue[2]) {
		t.Errorf("a refused request has latency %v, want NaN", p.byDue[2])
	}
	for i, l := range p.lateMs {
		if l < 0 {
			t.Errorf("request %d sent %.3fms before it was due", i, -l)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	// 500 requests all due at once: the generator can only hand them over
	// one by one, so each is later than the one before, and each request's
	// latency — timed from its due time — includes that lateness.
	offs := make([]time.Duration, 500)
	dues := make([]time.Time, len(offs))
	p := runOpen(1000, time.Millisecond, offs, func(i int, due time.Time) (status, bool) {
		dues[i] = due
		return statusOK, true
	})
	for i := range offs {
		if !dues[i].Equal(dues[0]) {
			t.Fatalf("request %d got due time %v, want the schedule's %v", i, dues[i], dues[0])
		}
		if i > 0 && p.lateMs[i] < p.lateMs[i-1] {
			t.Fatalf("lateness fell from %.4f to %.4f ms at %d", p.lateMs[i-1], p.lateMs[i], i)
		}
		if p.byDue[i] < p.lateMs[i] {
			t.Fatalf("request %d latency %.4fms excludes its %.4fms lateness", i, p.byDue[i], p.lateMs[i])
		}
	}
	if p.lateMs[len(offs)-1] <= 0 {
		t.Error("the last of a burst handed over with no lateness")
	}
}

func TestWindowQuantiles(t *testing.T) {
	// Four whole 1 s windows with medians 1, 1, 9 and 1; the trailing
	// part-window is left out, and so is a failed request.
	p := &phaseStats{dur: 4500 * time.Millisecond}
	for w, v := range []float64{1, 1, 9, 1, 100} {
		for k := 0; k < 100; k++ {
			off := time.Duration(w)*time.Second + time.Duration(k)*5*time.Millisecond
			if off >= p.dur {
				break
			}
			p.offsets = append(p.offsets, off)
			p.byDue = append(p.byDue, v)
		}
	}
	p.byDue[0] = math.NaN()
	got, tail := windowQuantiles(p, time.Second, 0.5)
	if !reflect.DeepEqual(got, []float64{1, 1, 9, 1}) || tail != 49 {
		t.Errorf("windowQuantiles = %v tail %d, want [1 1 9 1] tail 49", got, tail)
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a := poissonOffsets(7, "nominal", 5000, time.Second)
	b := poissonOffsets(7, "nominal", 5000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival offsets")
	}
	if c := poissonOffsets(8, "nominal", 5000, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival offsets")
	}
	if n := len(a); n < 4700 || n > 5300 {
		t.Errorf("5000/s for 1 s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("offsets not increasing within the phase at %d", i)
		}
	}
	p1, c1 := payload(inputKey(7, "nominal", 3))
	p2, c2 := payload(inputKey(7, "nominal", 3))
	if string(p1) != string(p2) || c1 != c2 {
		t.Fatal("same key gave different payloads")
	}
}

func TestZipfKeysDeterministic(t *testing.T) {
	a := zipfKeys(3, "nominal", 1.1, 1<<15, 20000)
	b := zipfKeys(3, "nominal", 1.1, 1<<15, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Zipf keys")
	}
	if reflect.DeepEqual(a, zipfKeys(4, "nominal", 1.1, 1<<15, 20000)) {
		t.Fatal("different seeds gave the same Zipf keys")
	}
	counts := map[uint64]int{}
	for _, k := range a {
		if k >= 1<<15 {
			t.Fatalf("key %d outside the key space", k)
		}
		counts[k]++
	}
	// Skewed: key 0 is the most popular, and keys repeat.
	for k, c := range counts {
		if c > counts[0] {
			t.Fatalf("key %d (%d draws) beats key 0 (%d draws)", k, c, counts[0])
		}
	}
	if len(counts) > len(a)/2 {
		t.Errorf("%d distinct keys in %d draws: not skewed", len(counts), len(a))
	}
}

func TestPayloadEmbedsItsClass(t *testing.T) {
	for i := uint64(0); i < 200; i++ {
		p, c := payload(inputKey(1, "x", i))
		matches := 0
		for _, name := range classes {
			if containsFold(string(p), name) {
				matches++
			}
		}
		if !containsFold(string(p), classes[c]) || matches != 1 {
			t.Fatalf("payload %q does not embed exactly its class %q", p, classes[c])
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidator(t *testing.T) {
	full := map[string]string{"inception_v3": "pizza", "inception_v4": "pizza", "inception_resnet_v2": "ramen"}
	v := newValidator(true, true)
	v.check(1, reply{Label: "pizza", Votes: full})
	v.check(1, reply{Label: "pizza", Votes: full}) // a cache hit repeating the miss
	if n := v.mismatches.Load(); n != 0 {
		t.Fatalf("consistent replies flagged: %d, %s", n, *v.firstErr.Load())
	}
	bad := []reply{
		{Label: "caviar", Votes: full},                                      // label outside the vocabulary
		{Label: "pizza", Votes: map[string]string{"inception_v3": "pizza"}}, // greedy reply missing votes
		{Label: "pizza", Votes: map[string]string{"resnet": "pizza", "inception_v4": "pizza", "inception_resnet_v2": "pizza"}},
		{Label: "ramen", Votes: full}, // key 1 answered differently under the same votes
		{Label: "pizza"},              // no votes
	}
	for i, r := range bad {
		before := v.mismatches.Load()
		v.check(1, r)
		if v.mismatches.Load() != before+1 {
			t.Errorf("bad reply %d not flagged", i)
		}
	}
	// Under rl a non-empty subset is valid, and another vote set may carry
	// another label for the same payload.
	rl := newValidator(false, true)
	rl.check(2, reply{Label: "pizza", Votes: full})
	rl.check(2, reply{Label: "ramen", Votes: map[string]string{"inception_resnet_v2": "ramen"}})
	if n := rl.mismatches.Load(); n != 0 {
		t.Fatalf("valid rl replies flagged: %s", *rl.firstErr.Load())
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(8)
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	tr.spans[0] = span{Name: "gen.send", Req: 1, Parent: -1, Start: at(0), End: at(10)}
	tr.spans[1] = span{Name: "client.call", Req: 1, Parent: 0, Start: at(2), End: at(9)}
	tr.spans[2] = span{Name: "rest.serve", Req: 1, Parent: 1, Start: at(3), End: at(5)}
	tr.spans[3] = span{Name: "rest.serve", Req: 1, Parent: 1, Start: at(4), End: at(7)} // overlaps its sibling
	tr.next.Store(4)
	self := selfTimes(tr)
	want := map[string][]float64{
		"gen.send":    {3000}, // 10 - 7 ms covered by client.call
		"client.call": {3000}, // 7 - 4 ms covered by the union 3..7
		"rest.serve":  {2000, 3000},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", 0, -1); i != -1 {
		t.Error("a nil tracer recorded a span")
	}
	nilTracer.end(-1)
}

// The calibration kernel does fixed work: the same rounds give the same
// finite result, so its time measures only the host's speed.
func TestCalibKernelIsFixedWork(t *testing.T) {
	a, b := calibKernel(200), calibKernel(200)
	if a != b || math.IsNaN(a) || math.IsInf(a, 0) || a == 0 {
		t.Fatalf("calibKernel(200) = %v then %v, want one finite non-zero value", a, b)
	}
	if calibKernel(400) == a {
		t.Error("calibKernel ignores its round count")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: code lists %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s %d: code has %v, BENCHMARK.json %s %s", kind, i, got[i], want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
