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

// hostInfo is recorded in every result file: a host-clock number means
// nothing without the machine it was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHostInfo(commit string) hostInfo {
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// procField returns the value of the first "key : value" (or
// "key:\tvalue") line of a /proc file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) — a read at
// workload end, not a sampler thread. 0 where /proc is unavailable.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// resetPeakRSS resets VmHWM to the current RSS so each workload of a
// multi-workload run reports its own peak. Best effort: without
// permission the next read is a whole-process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostSample is what one timed call cost the host.
type hostSample struct {
	wall, cpu  time.Duration
	allocBytes uint64
}

func (s hostSample) cpuMicrosPer(workerSteps int64) float64 {
	return float64(s.cpu.Microseconds()) / float64(workerSteps)
}

// measure times fn. The collection and the MemStats reads are outside
// the timer; collecting first keeps the previous repetition's garbage
// (and the re-staging's) out of this one's GC work.
func measure(fn func()) hostSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	return hostSample{wall: wall, cpu: cpu, allocBytes: m1.TotalAlloc - m0.TotalAlloc}
}
