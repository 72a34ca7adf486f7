package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	mallocs    uint64
	totalAlloc uint64
	gcCPU      float64
	gcCycles   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(gc)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		gcCPU:      gc[0].Value.Float64(),
		gcCycles:   gc[1].Value.Uint64(),
	}
}

// peakRSSMB returns the process's peak resident set size in MB. Each run
// is its own process, so no earlier run's peak can mask it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// calibrationRef is the reference speed the timings are scaled to: the
// calibration kernel's wall time on a quiet 2-vCPU x86-64 cloud VM.
const calibrationRef = 190 * time.Millisecond

// calibrate times a fixed workload that uses none of the program's code,
// one copy per CPU (GOMAXPROCS), and returns its wall time. On shared
// cloud hardware the speed a process gets drifts by tens of percent over
// minutes; timed next to a run, the kernel slows with it, so run time
// over kernel time tracks the program's own cost.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			calibrationSink.Add(calibrationWork(seed))
		}(uint64(i) + 1)
	}
	wg.Wait()
	return time.Since(start)
}

var calibrationSink atomic.Uint64

// calibrationWork mixes the kinds of work the simulator does: map
// updates keyed by formatted names, sorting, floating point, and pointer
// chasing over a few megabytes.
func calibrationWork(seed uint64) uint64 {
	const n = 1 << 16
	x := seed * 0x9E3779B97F4A7C15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[string]float64, n)
	keys := make([]string, n)
	buf := make([]byte, 0, 32)
	for i := range keys {
		buf = strconv.AppendUint(append(buf[:0], "db-"...), next()%(4*n), 10)
		keys[i] = string(buf)
		m[keys[i]] += math.Log(float64(i + 1))
	}
	slices.Sort(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k] * math.Exp(-float64(len(k)))
	}
	perm := make([]int32, 1<<20)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- { // Sattolo: one cycle through all
		j := next() % uint64(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := int32(0)
	for i := 0; i < 1<<22; i++ {
		p = perm[p]
	}
	return math.Float64bits(sum) + uint64(p)
}
