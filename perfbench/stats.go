package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
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

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, the percentile, and whether ten such samples exist; with
// fewer than eleven samples it falls back to the maximum.
func tail(xs []float64) (value, percentile float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	if n < 11 {
		return s[n-1], 100, false
	}
	// s[n-11] has exactly ten samples beyond it.
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// checkNoise tests a round's residual against the XNoise target: its mean
// must be within six standard errors of zero and its variance within six
// standard errors of the target (a sample variance over N draws has
// relative standard error √(2/N) for near-Gaussian noise).
func checkNoise(resid []float64, target float64) error {
	n := float64(len(resid))
	var sum, sq float64
	for _, v := range resid {
		sum += v
	}
	mean := sum / n
	for _, v := range resid {
		sq += (v - mean) * (v - mean)
	}
	variance := sq / (n - 1)
	if lim := 6 * math.Sqrt(target/n); math.Abs(mean) > lim {
		return fmt.Errorf("residual mean %.4g beyond ±%.4g", mean, lim)
	}
	if lim := 6 * math.Sqrt(2/n); math.Abs(variance/target-1) > lim {
		return fmt.Errorf("residual variance %.4g vs XNoise target %.4g: off by more than %.1f%%",
			variance, target, 100*lim)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp describes the machine and build a result was measured on.
func stamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
