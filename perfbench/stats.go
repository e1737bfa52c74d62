package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample is the part of the process state the per-layer runtime
// metrics are deltas of.
type runtimeSample struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSample{
		at:         time.Now(),
		cpu:        cpuTime(),
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPauseNs:  m.PauseTotalNs,
	}
}

// runtimeDelta is what one pass cost the Go runtime.
type runtimeDelta struct {
	cpuUtil   float64 // CPU seconds / (wall × GOMAXPROCS)
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	wall := b.at.Sub(a.at).Seconds()
	d := runtimeDelta{
		allocMB:   float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles:  float64(b.gcCycles - a.gcCycles),
		gcPauseMS: float64(b.gcPauseNs-a.gcPauseNs) / 1e6,
	}
	if wall > 0 {
		d.cpuUtil = (b.cpu - a.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	return d
}
