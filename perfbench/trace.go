package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one request share Req; Parent is the index of the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated in-memory table filled lock-free, and
// writes them out after the run. A nil tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its slot (-1 when not recording).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	i := int(t.next.Add(1) - 1)
	if i >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch)), End: -1}
	return i
}

// beginAt opens a span whose start is an earlier instant, such as the due
// time of an open-loop request.
func (t *tracer) beginAt(name string, req int64, at time.Time) int {
	i := t.begin(name, req, -1)
	if i >= 0 {
		t.spans[i].Start = int64(at.Sub(t.epoch))
	}
	return i
}

// end closes a span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// recorded returns the closed spans, in slot order.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns each closed span's duration in microseconds, keyed by
// span name.
func durations(t *tracer) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.recorded() {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// selfTimes returns each closed span's self time in microseconds, keyed by
// span name: its duration minus the part of that interval its children
// cover (children may overlap each other; their union is subtracted).
func selfTimes(t *tracer) map[string][]float64 {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	all := t.spans[:n]
	children := map[int][]int{}
	for i, s := range all {
		if s.End >= 0 && s.Parent >= 0 && s.Parent < n {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][]float64{}
	for i, s := range all {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{all[c].Start, all[c].End})
		}
		self := s.End - s.Start - coveredWithin(ivs, s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// coveredWithin is the length of the union of intervals clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur0, cur1 := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur1 {
			if cur1 > cur0 {
				total += cur1 - cur0
			}
			cur0, cur1 = a, b
		} else if b > cur1 {
			cur1 = b
		}
	}
	if cur1 > cur0 {
		total += cur1 - cur0
	}
	return total
}

// writeSpans saves the recorded spans as JSON under dir.
func writeSpans(t *tracer, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.recorded())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
