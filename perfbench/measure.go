package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value; ledger collects samples per metric name
// and reports their median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type ledger struct {
	units   map[string]string
	samples map[string][]float64
}

func newLedger() *ledger {
	return &ledger{units: map[string]string{}, samples: map[string][]float64{}}
}

func (l *ledger) add(name, unit string, v float64) {
	l.units[name] = unit
	l.samples[name] = append(l.samples[name], v)
}

// seconds records d in seconds under name.
func (l *ledger) seconds(name string, d time.Duration) { l.add(name, "s", d.Seconds()) }

// timed runs fn and records its wall time under name.
func (l *ledger) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	l.seconds(name, time.Since(t0))
	return err
}

func (l *ledger) median(name string) float64 { return median(l.samples[name]) }

// metrics returns the median of every named metric; a name without
// samples reports 0 in its declared unit (the layer did not run).
func (l *ledger) metrics(names []metricName) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n.name] = metric{Value: median(l.samples[n.name]), Unit: n.unit}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a point-in-time reading of the process's resource counters:
// CPU from getrusage, and heap allocations and GC CPU from runtime/metrics.
type usage struct {
	cpu         time.Duration
	allocBytes  uint64
	allocObjs   uint64
	gcCPUSecond float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	u.allocBytes = s[0].Value.Uint64()
	u.allocObjs = s[1].Value.Uint64()
	u.gcCPUSecond = s[2].Value.Float64()
	return u
}

// since returns the resources used between u and now.
func (u usage) since() usage {
	n := readUsage()
	return usage{
		cpu:         n.cpu - u.cpu,
		allocBytes:  n.allocBytes - u.allocBytes,
		allocObjs:   n.allocObjs - u.allocObjs,
		gcCPUSecond: n.gcCPUSecond - u.gcCPUSecond,
	}
}

// settle collects garbage and returns freed memory to the OS, so the next
// phase starts from the live heap alone.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS clears the kernel's peak-RSS mark (VmHWM) so that later
// reads cover only what follows. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stopwatch measures a phase's wall time and the CPU time the hypervisor
// stole from this machine meanwhile. The benchmark runs on shared virtual
// machines whose vCPUs are descheduled for seconds at a time; busy() is
// the wall time less the stolen time per CPU, which is what the phase
// takes when the job keeps its CPUs.
type stopwatch struct {
	t0     time.Time
	steal0 float64
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), steal0: stealSeconds()} }

func (w stopwatch) wall() time.Duration { return time.Since(w.t0) }

// stolen is the CPU time stolen since the start, per CPU.
func (w stopwatch) stolen() time.Duration {
	return time.Duration((stealSeconds() - w.steal0) / float64(runtime.NumCPU()) * float64(time.Second))
}

func (w stopwatch) busy() time.Duration { return w.wall() - w.stolen() }

// stealSeconds reads the machine-wide stolen CPU time from /proc/stat (the
// eighth field of the "cpu" line, in USER_HZ ticks of 10 ms). It reads 0
// where the kernel does not report steal, so busy() falls back to wall time.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
