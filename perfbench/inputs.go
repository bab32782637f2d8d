package main

import (
	"fmt"
	"math/rand"
	"time"
)

// classes is the label vocabulary of the imported dataset. No name is a
// substring of another or of a hex digest, so the class embedded in a
// payload is the only class the serving path can ground its truth on.
var classes = []string{"pizza", "ramen", "sushi", "salad", "burger", "tacos", "curry", "donut", "bagel", "paella"}

// datasetFolders is the imported dataset: imagesPer images of each class.
func datasetFolders() map[string]int {
	out := make(map[string]int, len(classes))
	for _, c := range classes {
		out[c] = imagesPer
	}
	return out
}

// mix is splitmix64: a stateless, well-distributed hash used to derive every
// input from (seed, stream, index) so inputs never depend on goroutine
// scheduling.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// inputKey derives the 64-bit identity of input i of a stream.
func inputKey(seed int64, stream string, i uint64) uint64 {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = mix(h ^ uint64(c))
	}
	return mix(h ^ mix(i))
}

// payload renders the query body for a key: a unique digest plus the class
// the serving simulator grounds its truth on, returned as the class index.
func payload(key uint64) ([]byte, int) {
	c := int(mix(key^0xc1a55) % uint64(len(classes)))
	return []byte(fmt.Sprintf("img-%016x_%s.jpg", key, classes[c])), c
}

// poissonOffsets returns the send offsets of an open-loop Poisson stream at
// rate requests per second lasting d, drawn from its own seeded source: the
// same (seed, stream) always yields the same schedule.
func poissonOffsets(seed int64, stream string, rate float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(int64(inputKey(seed, stream, 0) >> 1)))
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// zipfKeys draws n key indices in [0, space) from Zipf(s) over a seeded
// source, so the popularity skew — and which keys are hot — repeats per seed.
func zipfKeys(seed int64, stream string, s float64, space uint64, n int) []uint64 {
	r := rand.New(rand.NewSource(int64(inputKey(seed, stream, 1) >> 1)))
	z := rand.NewZipf(r, s, 1, space-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}
