package predcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafiki/internal/sim"
	"rafiki/internal/workload"
)

// fakeClock is a hand-advanced clock for deterministic TTL/decay tests.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(dt float64) {
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

func digestOf(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// get runs one read-through lookup for input, counting engine submissions.
func get(t *testing.T, c *Cache, input []byte, computes *atomic.Int64) (any, Outcome) {
	t.Helper()
	v, out, err := c.GetOrCompute(digestOf(input), input, func() (any, error) {
		computes.Add(1)
		return string(input) + "-result", nil
	})
	if err != nil {
		t.Fatalf("GetOrCompute(%q): %v", input, err)
	}
	return v, out
}

func TestAdmissionThenHitThenTTLExpiry(t *testing.T) {
	clk := &fakeClock{}
	// Half-life far above the TTL so expiry, not hotness decay, is what the
	// post-TTL lookup exercises.
	c := New(Config{Capacity: 64, TTL: 10, AdmitThreshold: 2, HalfLife: 100, Shards: 2, Now: clk.Now})
	var computes atomic.Int64
	in := []byte("hot-key")

	// First touch: below threshold → computed cold, not stored.
	if _, out := get(t, c, in, &computes); out != ComputedCold {
		t.Fatalf("first lookup outcome = %v, want ComputedCold", out)
	}
	if c.Len() != 0 {
		t.Fatalf("cold compute stored an entry: len=%d", c.Len())
	}
	// Second touch crosses the threshold → leader compute, stored.
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("second lookup outcome = %v, want ComputedHot", out)
	}
	if c.Len() != 1 {
		t.Fatalf("hot compute did not store: len=%d", c.Len())
	}
	// Third: a hit, no engine submission.
	v, out := get(t, c, in, &computes)
	if out != Hit {
		t.Fatalf("third lookup outcome = %v, want Hit", out)
	}
	if v != "hot-key-result" {
		t.Fatalf("hit served %v", v)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("engine submissions = %d, want 2", n)
	}

	// Past the TTL the entry expires: the lookup recomputes and the eviction
	// is accounted as TTL, not staleness.
	clk.Advance(11)
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("post-TTL outcome = %v, want ComputedHot", out)
	}
	st := c.Snapshot()
	if st.TTLEvictions != 1 {
		t.Fatalf("ttl evictions = %d, want 1", st.TTLEvictions)
	}
	if st.StaleEvictions != 0 {
		t.Fatalf("stale evictions = %d, want 0", st.StaleEvictions)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", st.Hits, st.Misses)
	}
}

// TestAdmissionUniformVsZipf is the admission-policy property: a uniform key
// flood (every key seen ~once within a half-life) stores almost nothing,
// while the same request count drawn Zipfian caches its hot region and serves
// most traffic from it.
func TestAdmissionUniformVsZipf(t *testing.T) {
	const requests = 20000
	run := func(next func(i int) int) Stats {
		clk := &fakeClock{}
		c := New(Config{Capacity: 256, TTL: 1e9, AdmitThreshold: 2, HalfLife: 5, Now: clk.Now})
		var computes atomic.Int64
		for i := 0; i < requests; i++ {
			clk.Advance(0.001)
			key := []byte{byte(next(i)), byte(next(i) >> 8), byte(next(i) >> 16)}
			get(t, c, key, &computes)
		}
		return c.Snapshot()
	}

	// Uniform over a key space far larger than threshold×half-life traffic:
	// repeats within a half-life are rare, so nothing becomes hot.
	uni := run(func(i int) int { return i % 100000 })
	if uni.Admissions > requests/100 {
		t.Fatalf("uniform flood admitted %d entries, want ≈0", uni.Admissions)
	}
	if uni.HitRate > 0.01 {
		t.Fatalf("uniform hit rate = %v, want ≈0", uni.HitRate)
	}

	// Zipfian s=1.1: the head repeats constantly, crosses the threshold and
	// serves the bulk of traffic from cache.
	z, err := workload.NewZipf(100000, 1.1, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int, requests)
	for i := range keys {
		keys[i] = z.Next()
	}
	zipf := run(func(i int) int { return keys[i] })
	if zipf.HitRate < 0.5 {
		t.Fatalf("zipf hit rate = %v, want ≥ 0.5", zipf.HitRate)
	}
	if zipf.Admissions == 0 || zipf.HotKeys == 0 {
		t.Fatalf("zipf admitted %d entries with %d hot keys, want both > 0", zipf.Admissions, zipf.HotKeys)
	}
	if zipf.HitRate < 10*uni.HitRate {
		t.Fatalf("zipf hit rate %v not clearly above uniform %v", zipf.HitRate, uni.HitRate)
	}
}

// TestSingleflightExactlyOneSubmit: N concurrent identical misses on a hot
// key run the computation exactly once; everyone gets the value.
func TestSingleflightExactlyOneSubmit(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 100, AdmitThreshold: 2, HalfLife: 100, Now: clk.Now})
	in := []byte("stampede")
	key := digestOf(in)

	// Warm the hotness tracker past the threshold without storing a value:
	// two cold computes whose results we discard by invalidating... simpler:
	// threshold 2 means the 2nd miss is already hot, so start concurrency at
	// the 2nd wave with an empty store.
	var warm atomic.Int64
	get(t, c, in, &warm) // cold, not stored

	const waiters = 32
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, waiters)
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			v, out, err := c.GetOrCompute(key, in, func() (any, error) {
				computes.Add(1)
				<-release // hold every concurrent miss in the flight window
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	close(started)
	// Release the leader only once every goroutine has joined its flight.
	// Each miss is counted under the shard lock that also creates or joins
	// the flight, and the flight outlives the held compute, so 1 + waiters
	// misses means the leader plus waiters-1 goroutines parked on it — none
	// can arrive after the store and read a Hit instead.
	deadline := time.Now().Add(10 * time.Second)
	for c.Snapshot().Misses < 1+waiters {
		if time.Now().After(deadline) {
			t.Fatalf("misses = %d, want %d before releasing the leader", c.Snapshot().Misses, 1+waiters)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("engine submissions = %d, want exactly 1", n)
	}
	leaders := 0
	for i := range results {
		if results[i] != "value" {
			t.Fatalf("waiter %d got %v", i, results[i])
		}
		if outcomes[i] == ComputedHot {
			leaders++
		} else if outcomes[i] != Collapsed && outcomes[i] != Hit {
			t.Fatalf("waiter %d outcome = %v", i, outcomes[i])
		}
	}
	if leaders != 1 {
		t.Fatalf("singleflight leaders = %d, want 1", leaders)
	}
	st := c.Snapshot()
	if st.Collapsed != waiters-1 {
		t.Fatalf("collapsed counter = %d, want %d (every non-leader joins the flight)", st.Collapsed, waiters-1)
	}
}

// TestInvalidationDropsStaleEntries: after an epoch bump nothing written
// before it is ever served — the next lookup recomputes and the old entry is
// accounted as a staleness eviction.
func TestInvalidationDropsStaleEntries(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	var computes atomic.Int64
	in := []byte("k")

	get(t, c, in, &computes) // threshold 1: stored immediately
	if _, out := get(t, c, in, &computes); out != Hit {
		t.Fatalf("warm lookup outcome = %v, want Hit", out)
	}

	c.Invalidate()
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("post-invalidation outcome = %v, want ComputedHot (stale entry served?)", out)
	}
	st := c.Snapshot()
	if st.StaleEvictions != 1 {
		t.Fatalf("stale evictions = %d, want 1", st.StaleEvictions)
	}
	if st.Invalidations != 1 || st.Epoch != 1 {
		t.Fatalf("invalidations/epoch = %d/%d, want 1/1", st.Invalidations, st.Epoch)
	}
	// The fresh entry was written under the new epoch: hits resume.
	if _, out := get(t, c, in, &computes); out != Hit {
		t.Fatalf("post-recompute outcome = %v, want Hit", out)
	}
}

// TestInvalidationRacesInFlightCompute: a computation in flight when the
// epoch bumps must not install its (now superseded) result.
func TestInvalidationRacesInFlightCompute(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	in := []byte("racing")
	inFlight := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, out, err := c.GetOrCompute(digestOf(in), in, func() (any, error) {
			close(inFlight)
			<-release
			return "old-ensemble", nil
		})
		if err != nil || out != ComputedHot {
			t.Errorf("leader: out=%v err=%v", out, err)
		}
	}()
	<-inFlight
	c.Invalidate() // model set changed mid-compute
	close(release)
	<-done
	if c.Len() != 0 {
		t.Fatalf("superseded in-flight result was cached: len=%d", c.Len())
	}
}

// TestDigestCollisionNeverServesWrongResult: two inputs with the same digest
// must each get their own result.
func TestDigestCollisionNeverServesWrongResult(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	const sharedDigest = uint64(42)
	compute := func(s string) func() (any, error) {
		return func() (any, error) { return s + "-result", nil }
	}
	if v, _, _ := c.GetOrCompute(sharedDigest, []byte("a"), compute("a")); v != "a-result" {
		t.Fatalf("a got %v", v)
	}
	// Same digest, different input: must not be served a's entry.
	if v, _, _ := c.GetOrCompute(sharedDigest, []byte("b"), compute("b")); v != "b-result" {
		t.Fatalf("b got %v", v)
	}
	// a's slot may have been replaced, but a hit for either input always
	// matches its own bytes.
	v, out, _ := c.GetOrCompute(sharedDigest, []byte("b"), compute("b"))
	if v != "b-result" {
		t.Fatalf("b repeat got %v", v)
	}
	if out != Hit {
		t.Fatalf("b repeat outcome = %v, want Hit", out)
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 4, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Shards: 1, Now: clk.Now})
	var computes atomic.Int64
	for i := 0; i < 8; i++ {
		get(t, c, []byte{byte(i)}, &computes)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", c.Len())
	}
	st := c.Snapshot()
	if st.CapacityEvictions != 4 {
		t.Fatalf("capacity evictions = %d, want 4", st.CapacityEvictions)
	}
}

// TestConfigureLive retunes capacity and TTL on a warm cache.
func TestConfigureLive(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 16, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Shards: 1, Now: clk.Now})
	var computes atomic.Int64
	for i := 0; i < 16; i++ {
		get(t, c, []byte{byte(i)}, &computes)
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
	c.Configure(Config{Capacity: 4, TTL: 5, AdmitThreshold: 1, HalfLife: 100})
	if c.Len() != 4 {
		t.Fatalf("post-shrink len = %d, want 4", c.Len())
	}
	// Surviving entries keep their original expiry; new writes get the new
	// TTL. Advance past the new TTL and insert fresh.
	get(t, c, []byte{99}, &computes)
	clk.Advance(6)
	_, out, _ := c.GetOrCompute(digestOf([]byte{99}), []byte{99}, func() (any, error) {
		computes.Add(1)
		return "fresh", nil
	})
	if out != ComputedHot {
		t.Fatalf("post-TTL-change outcome = %v, want ComputedHot", out)
	}
}

// TestConcurrentMixedLoad exercises the cache under -race: readers, writers,
// invalidations and reconfiguration all at once.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(Config{Capacity: 128, TTL: 1e9, AdmitThreshold: 2, HalfLife: 100})
	z, err := workload.NewZipf(512, 1.1, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 4096)
	for i := range keys {
		k := z.Next()
		keys[i] = []byte{byte(k), byte(k >> 8)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 8 {
				in := keys[i]
				if _, _, err := c.GetOrCompute(digestOf(in), in, func() (any, error) {
					return string(in), nil
				}); err != nil {
					t.Error(err)
				}
				if i%512 == 0 {
					c.Invalidate()
				}
				if i%1024 == 0 {
					c.Configure(Config{Capacity: 64 + i%128, TTL: 30, AdmitThreshold: 2, HalfLife: 50})
				}
			}
		}(w)
	}
	wg.Wait()
	c.Snapshot() // must not race
}
