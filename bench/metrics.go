package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number. A NaN value means "not
// applicable on this workload"; it prints as null in the report and as 0
// on the driver's result line, whose schema wants a number everywhere.
type metric struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Value value  `json:"value"`
}

// metrics keeps insertion order: the report prints layer by layer.
type metrics []metric

func (m *metrics) put(name, unit string, v float64) {
	*m = append(*m, metric{Name: name, Unit: unit, Value: value(v)})
}

// scaleTimes multiplies every duration-valued metric by f: how a raw
// timing becomes one at nominal host speed (calib.go).
func (m metrics) scaleTimes(f float64) {
	for i, x := range m {
		switch x.Unit {
		case "us", "ms", "s":
			m[i].Value *= value(f)
		}
	}
}

var nan = math.NaN()

// ratio is a/b, NaN when b is zero: a metric with nothing to divide by
// was not measured, and must not print as 0 or +Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return nan
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durs converts durations to floats in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return xs
}

// cpuTime is the process's user+system CPU time so far. Every tier runs
// in this process, so it is the whole system's CPU bill — the figure
// that bounds throughput when client, coordinator and nodes share cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nan
	}
	return float64(ru.Maxrss) / 1024
}

// freeMemory collects garbage and hands freed pages back to the OS, so
// that peak RSS is the largest phase's peak and not a sum of leftovers
// whose size depends on when the collector last happened to run.
func freeMemory() { debug.FreeOSMemory() }

// allocDelta runs fn and returns the heap objects and bytes it allocated.
func allocDelta(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}
