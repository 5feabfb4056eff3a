package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// substrate is the line every output carries: what the numbers were measured
// on.
type substrate struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func readSubstrate() substrate {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return substrate{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Network:    "loopback TCP, one process",
	}
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goGCCPU is the CPU time the Go runtime has spent collecting its own heap.
func goGCCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (clear_refs(5), see proc(5)), so that what peakRSSMB
// reads later belongs to the cluster brought up after this call and not to
// the discarded set-up clusters before it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// hostCPU is the host's cumulative CPU accounting from /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, v := range f {
		if i == 0 {
			continue
		}
		x, _ := strconv.ParseFloat(v, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.total += x
		}
		if i == 8 {
			h.steal = x
		}
	}
	return h
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop: if the same work takes longer than
// in the run's other segments, the host — not the program — got slower. It
// runs beside the load, so it reports the fastest of several short loops: a
// loop the scheduler interrupted says nothing about the host's speed.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 9; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = math.Min(best, float64(time.Since(start))/1e6)
	}
	return best
}
