package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSample is the machine-wide CPU tick counters from /proc/stat.
type stealSample struct{ steal, total uint64 }

// readSteal reads the aggregate cpu line of /proc/stat; zero where the file
// is absent (the steal share then reads 0).
func readSteal() stealSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealSample{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// fracSince is the share of machine CPU time stolen by the hypervisor since
// an earlier sample: time this machine's CPUs were owed but ran elsewhere.
func (s stealSample) fracSince(prev stealSample) float64 {
	if s.total <= prev.total {
		return 0
	}
	return float64(s.steal-prev.steal) / float64(s.total-prev.total)
}

// memSample is the Go runtime counters a phase is charged with.
type memSample struct {
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

// memDelta is a memSample difference.
type memDelta memSample

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (m memSample) sub(prev memSample) memDelta {
	return memDelta{alloc: m.alloc - prev.alloc, numGC: m.numGC - prev.numGC, pauseNs: m.pauseNs - prev.pauseNs}
}
