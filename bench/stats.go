package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, averaging the two central ones of an even
// sample so a two-round run does not silently report its slower round.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and the third quartile of xs as
// a share of their median: the statistic the driver applies to the runs of
// a metric (Python's statistics.quantiles(xs, n=4)), here applied to the
// rounds of one run. One disturbed round barely moves it.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procStats is the cumulative cost of a process: CPU and heap allocation.
// Window deltas of it give cpu_ms_per_frame, allocs_per_frame and
// alloc_kb_per_frame.
type procStats struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
}

// selfStats reads the benchmark process's own totals; the in-process
// workloads run the program inside it.
func selfStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu, _ := selfCPU()
	return procStats{
		cpu:        cpu,
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
	}
}

// selfCPU is the benchmark process's user+system time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), err
}

// childCPU reads a live child's user+system time from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 10 ms on every Linux port Go runs on).
func childCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, os.ErrInvalid
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
