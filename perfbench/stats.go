package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 < q <= 1) of raw samples by the
// nearest-rank rule: always an observed value, never interpolated past
// the largest sample.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set size (VmHWM), so that the next reading covers one pass
// alone. Every workload also runs in a process of its own, so one
// workload's peak never reaches another's figure.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // unsupported kernels: the peak covers the run so far
}

// peakRSSMB returns the peak resident set size, in MiB, since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a reading of the runtime counters a pass is charged with.
// Deltas between two readings give a pass's own allocation and GC cost,
// unlike the process-lifetime MemStats.GCCPUFraction.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// rtDelta is the runtime cost between two samples.
type rtDelta struct {
	AllocMB   float64
	NumGC     float64
	GCCPUFrac float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		AllocMB:   float64(b.allocBytes-a.allocBytes) / (1 << 20),
		NumGC:     float64(b.gcCycles - a.gcCycles),
		GCCPUFrac: ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// allocSince returns the heap bytes allocated since sample a, in MiB.
func allocSince(a rtSample) float64 {
	return float64(readRuntime().allocBytes-a.allocBytes) / (1 << 20)
}
