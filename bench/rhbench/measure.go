package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM), so that the
// peak a rep reaches can be read after it. Where the kernel refuses, the
// mark stays the process-lifetime peak.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.Write([]byte("5"))
	f.Close()
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS:
// VmHWM, or ru_maxrss where /proc is unavailable (both in KiB).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
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
	return float64(ru.Maxrss) / 1024
}

// repSample is what one rep cost the process.
type repSample struct {
	wall, cpu float64 // seconds
	mallocs   float64 // heap objects allocated
	allocMB   float64 // heap bytes allocated, MiB
	rssMB     float64 // peak resident set during the rep
	gcCycles  float64
	gcPauseMS float64
	tasks     float64 // engine tasks the rep executed
}

// measureRep runs one rep between two runtime.MemStats and getrusage
// readings; the readings themselves stay outside the timed interval.
// Every rep starts from a collected heap returned to the kernel, so that
// neither its garbage collections nor its peak resident set depend on
// what the rep before it left behind.
func measureRep(fn func() (tasks int, err error)) (repSample, error) {
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	tasks, err := fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return repSample{
		wall:      wall,
		cpu:       c1 - c0,
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		rssMB:     peakRSSMB(),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		tasks:     float64(tasks),
	}, err
}

func column(rs []repSample, f func(repSample) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// repeatFor runs rep at least min times, then again while the median rep
// so far still fits in what is left of budget, so a run measures for
// about budget and never runs a rep it knows will overshoot.
func repeatFor(budget time.Duration, min int, rep func(i int) (repSample, error)) ([]repSample, error) {
	start := time.Now()
	var out []repSample
	for i := 0; ; i++ {
		if i >= min {
			est := time.Duration(median(column(out, func(s repSample) float64 { return s.wall })) * float64(time.Second))
			if time.Since(start)+est > budget {
				return out, nil
			}
		}
		s, err := rep(i)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// tally counts the operations a run attempted and the ones whose output
// was wrong or missing. Service clients update it concurrently.
type tally struct {
	attempted, failed atomic.Int64
}

// check records one attempted operation; a false ok is a failure, logged
// to standard error with its reason.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "rhbench: FAIL: "+format+"\n", args...)
	}
	return ok
}
