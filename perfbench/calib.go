package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration for the CPU-bound tune_bayes workload.
//
// A tuning job keeps every CPU busy with floating-point work (Gaussian-
// process kernel evaluations, triangular solves, exp), so its wall and CPU
// time follow the host's speed as much as the program's. On a shared
// virtual machine that speed drifts by tens of percent between periods
// (other tenants on the same cores), which moved the raw median job time
// 0.18–0.25 of itself between runs of the same code. Before each job the
// benchmark therefore runs a fixed kernel of its own on every CPU at once
// and reports the job's times scaled to the speed at which that kernel
// takes calibRefMs. The kernel shares no code with the program, so a
// program change moves the scaled times as much as the raw ones; only the
// host's speed cancels out.

// calibRounds sizes one calibration: about 45 ms on the 2-vCPU machine the
// benchmark was written on, under a tenth of a tuning job.
const calibRounds = 16000

// calibRefMs is the calibration time that defines the reference speed: the
// kernel's median on that machine. Scaled times read as milliseconds on a
// host where the kernel takes exactly this long.
const calibRefMs = 46.0

// calibrate runs the kernel on GOMAXPROCS goroutines at once and returns
// the wall time until the last one finishes, in milliseconds. A full GC
// first keeps the program's leftover garbage from being collected during
// the timing.
func calibrate() float64 {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n) // kept so the work is not optimised away
	var wg sync.WaitGroup
	start := time.Now()
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = calibKernel(calibRounds)
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}

// calibKernel repeats a forward substitution on a fixed well-conditioned
// 48×48 lower-triangular system whose right-hand side is built with exp:
// the tuning job's dominant operations, with no allocation in the loop.
func calibKernel(rounds int) float64 {
	const n = 48
	l := make([]float64, n*n)
	for i := range n {
		for j := range i {
			l[i*n+j] = 1 / float64(2+i-j)
		}
		l[i*n+i] = 2
	}
	b := make([]float64, n)
	x := make([]float64, n)
	sum := 0.0
	for r := range rounds {
		for i := range b {
			b[i] = math.Exp(-float64((i+r)%n) / n)
		}
		for i := range n {
			s := b[i]
			for j := range i {
				s -= l[i*n+j] * x[j]
			}
			x[i] = s / l[i*n+i]
		}
		sum += x[n-1]
	}
	return sum
}
