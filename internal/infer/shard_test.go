package infer

import (
	"fmt"
	"sync"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// TestEngineShardRoundRobinDrain: with four shards and two replicas per
// model, one decision point drains two full batches from two different
// shards — round-robin, not whichever shard happens to be first.
func TestEngineShardRoundRobinDrain(t *testing.T) {
	d := replicaDeployment(t, 1.0, 2)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	if err := e.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if got := e.ShardCount(); got != 4 {
		t.Fatalf("shard count = %d, want 4", got)
	}
	// Enough requests that every shard holds at least a full batch.
	for i := 0; i < 256; i++ {
		e.Enqueue(0, Request{ID: uint64(i), Arrival: 0})
	}
	if got := e.QueueLen(); got != 256 {
		t.Fatalf("queue len = %d, want 256", got)
	}
	lens := e.ShardQueueLens()
	sum := 0
	for si, l := range lens {
		if l == 0 {
			t.Fatalf("shard %d empty after 256 hashed arrivals: %v", si, lens)
		}
		sum += l
	}
	if sum != 256 {
		t.Fatalf("shard lens %v sum to %d, want 256", lens, sum)
	}
	outs, err := e.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("dispatches = %d, want 2 (one per replica)", len(outs))
	}
	shardOf := func(out DispatchOutcome) int {
		si := shardFor(out.Requests[0].ID, 4)
		for _, r := range out.Requests {
			if got := shardFor(r.ID, 4); got != si {
				t.Fatalf("batch mixes shards %d and %d", si, got)
			}
		}
		return si
	}
	if a, b := shardOf(outs[0]), shardOf(outs[1]); a == b {
		t.Fatalf("both batches drained shard %d; want round-robin across shards", a)
	}
	if got := e.QueueLen(); got != 256-32 {
		t.Fatalf("queue len after two batches = %d, want %d", got, 256-32)
	}
}

// TestEngineSetShardsReshardsBacklog: re-sharding a live backlog loses
// nothing and keeps FIFO order — including the 1 → N → 1 round-trip, which
// must restore the exact single-queue order the pre-shard engine would have.
func TestEngineSetShardsReshardsBacklog(t *testing.T) {
	d := replicaDeployment(t, 1.0, 1)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	const n = 20
	for i := 0; i < n; i++ {
		e.Enqueue(float64(i), Request{ID: uint64(i), Arrival: float64(i)})
	}
	if err := e.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if got := e.QueueLen(); got != n {
		t.Fatalf("queue len after reshard = %d, want %d", got, n)
	}
	lens := e.ShardQueueLens()
	nonEmpty, sum := 0, 0
	for _, l := range lens {
		if l > 0 {
			nonEmpty++
		}
		sum += l
	}
	if sum != n || nonEmpty < 2 {
		t.Fatalf("shard lens after reshard = %v (sum %d, non-empty %d)", lens, sum, nonEmpty)
	}
	// Each shard must hold its requests oldest-first.
	for si := range e.shards {
		w := e.shards[si].q.Waits(float64(n), 16)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1] {
				t.Fatalf("shard %d not FIFO: waits %v", si, w)
			}
		}
	}
	// Round-trip back to one shard: the global arrival order is restored.
	if err := e.SetShards(1); err != nil {
		t.Fatal(err)
	}
	if got := e.ShardQueueLens(); len(got) != 1 || got[0] != n {
		t.Fatalf("shard lens after round-trip = %v, want [%d]", got, n)
	}
	for i := 0; i < n; i++ {
		r := e.shards[0].q.PopN(1)[0]
		if r.ID != uint64(i) {
			t.Fatalf("round-trip order broken at %d: got ID %d", i, r.ID)
		}
	}
	// Validation.
	if err := e.SetShards(0); err == nil {
		t.Fatal("zero shards should error")
	}
	if err := e.SetShards(maxEngineShards + 1); err == nil {
		t.Fatal("oversized shard count should error")
	}
}

// TestEngineBacklogs: the per-model demand signal tracks the queued share
// and the in-flight batch, and decays once the batch finishes.
func TestEngineBacklogs(t *testing.T) {
	d := replicaDeployment(t, 1.0, 1)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	for i := 0; i < 40; i++ {
		e.Enqueue(0, Request{ID: uint64(i), Arrival: 0})
	}
	// No dispatch history: every model is assumed to serve the whole queue.
	for m, b := range e.Backlogs(0) {
		if b.Queued != 40 || b.Inflight != 0 {
			t.Fatalf("model %d backlog before dispatch = %+v", m, b)
		}
	}
	outs, err := e.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || len(outs[0].Requests) != 16 {
		t.Fatalf("outs = %+v, want one 16-batch", outs)
	}
	for m, b := range e.Backlogs(0) {
		// SyncAll dispatched all 16 to every model: share stays 1.
		if b.Queued != 24 || b.Inflight != 16 {
			t.Fatalf("model %d backlog mid-flight = %+v, want {24 16}", m, b)
		}
	}
	// Past the ensemble finish, nothing is in flight anymore.
	for m, b := range e.Backlogs(outs[0].Finish + 1) {
		if b.Inflight != 0 {
			t.Fatalf("model %d inflight after finish = %+v", m, b)
		}
	}
}

// TestShardedRuntimeFairnessRace hammers an 8-shard runtime from concurrent
// goroutines (run under -race): every submission across every shard must be
// served exactly once — no shard starves behind the round-robin drain — and
// the stats must balance.
func TestShardedRuntimeFairnessRace(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 500),
		RuntimeConfig{Combine: echoCombine, Timeline: &sim.WallTimeline{Speedup: 200}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 25
	const total = clients * perClient
	// Sequential IDs 0..total-1 hash onto every one of the 8 shards; if any
	// shard starved, some future would never resolve and Wait would hang the
	// test into its timeout.
	covered := make([]bool, 8)
	for id := 0; id < total; id++ {
		covered[shardFor(uint64(id), 8)] = true
	}
	for si, ok := range covered {
		if !ok {
			t.Fatalf("test workload never hashes to shard %d", si)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				f, err := rt.Submit(fmt.Sprintf("c%d-%d", c, i))
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Served != total {
		t.Fatalf("served = %d, want %d", st.Served, total)
	}
	if st.Shards != 8 || len(st.ShardQueueLens) != 8 {
		t.Fatalf("stats shards = %d lens = %v, want 8 shards", st.Shards, st.ShardQueueLens)
	}
	left := 0
	for _, l := range st.ShardQueueLens {
		left += l
	}
	if left != 0 || st.QueueLen != 0 {
		t.Fatalf("backlog left after serving everything: %v (queue_len %d)", st.ShardQueueLens, st.QueueLen)
	}
	if len(st.ModelBacklogs) != 3 {
		t.Fatalf("model backlogs = %v, want one per model", st.ModelBacklogs)
	}
	rt.Close()
	if _, err := rt.Submit("late"); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestShardedRuntimeDeterministicEventLoop drives an 8-shard runtime over
// the virtual-time EventLoop: every coalesced sweep runs inline in the
// loop's single-threaded event order, so the sharded data plane replays
// deterministically and still groups requests into shared batches.
func TestShardedRuntimeDeterministicEventLoop(t *testing.T) {
	run := func() Stats {
		d := replicaDeployment(t, 0.5, 1)
		loop := sim.NewEventLoop()
		rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
			RuntimeConfig{Combine: echoCombine, Timeline: loop, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		var futs []Future
		loop.Schedule(0.01, func() {
			for i := 0; i < 32; i++ {
				f, err := rt.Submit(i)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				futs = append(futs, f)
			}
		})
		loop.RunUntil(30)
		for i, f := range futs {
			select {
			case <-f.Done():
			default:
				t.Fatalf("future %d unresolved", i)
			}
		}
		return rt.Stats()
	}
	st := run()
	if st.Served != 32 || st.QueueLen != 0 {
		t.Fatalf("served = %d queue = %d, want 32/0", st.Served, st.QueueLen)
	}
	if st.Dispatches >= 32 || st.Dispatches == 0 {
		t.Fatalf("dispatches = %d, want batching (0 < dispatches < 32)", st.Dispatches)
	}
	st2 := run()
	if st2.Served != st.Served || st2.Dispatches != st.Dispatches || st2.Decisions != st.Decisions {
		t.Fatalf("sharded runtime not deterministic over the event loop: %+v vs %+v", st, st2)
	}
}

// TestShardedRuntimeQueueFullAndReshard: the global queue cap holds across
// shards, and re-sharding a live backlog (1 → 4) keeps every queued future
// servable.
func TestShardedRuntimeQueueFullAndReshard(t *testing.T) {
	d := replicaDeployment(t, 0.5, 1)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 200),
		RuntimeConfig{Combine: echoCombine, Timeline: loop, QueueCap: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	full := 0
	var futs []Future
	loop.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			f, err := rt.Submit(i)
			switch err {
			case nil:
				futs = append(futs, f)
			case ErrQueueFull:
				full++
			default:
				t.Errorf("submit: %v", err)
			}
		}
		// Re-shard the standing backlog mid-flight: nothing may be lost.
		if err := rt.SetShards(2); err != nil {
			t.Errorf("set shards: %v", err)
		}
	})
	loop.RunUntil(10)
	if full != 6 {
		t.Fatalf("queue-full rejections = %d, want 6 (global cap across shards)", full)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("future %d after reshard: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Served != 4 || st.Dropped != 6 || st.Shards != 2 {
		t.Fatalf("stats = served %d dropped %d shards %d, want 4/6/2", st.Served, st.Dropped, st.Shards)
	}
	rt.Close()
	if err := rt.SetShards(8); err != ErrClosed {
		t.Fatalf("set shards on closed runtime = %v, want ErrClosed", err)
	}
}

// TestFutureModelsPerFutureCopy pins the batch-sharing bugfix: two requests
// served by the same batch must not share the Models() backing slice — a
// caller mutating its own result cannot corrupt its batch sibling's.
func TestFutureModelsPerFutureCopy(t *testing.T) {
	d := replicaDeployment(t, 0.5, 1)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		RuntimeConfig{Combine: echoCombine, Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}
	var a, b Future
	loop.Schedule(0.01, func() {
		a, _ = rt.Submit("a")
		b, _ = rt.Submit("b")
	})
	loop.RunUntil(30)
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(a.Models()) != 3 || len(b.Models()) != 3 {
		t.Fatalf("models = %v / %v, want the full ensemble on both", a.Models(), b.Models())
	}
	a.Models()[0] = "corrupted"
	if b.Models()[0] == "corrupted" {
		t.Fatal("batch siblings share the Models() backing slice")
	}
}
