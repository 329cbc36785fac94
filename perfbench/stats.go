package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted. Failed
// operations are +Inf entries, so they sort last and count as missing
// every latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailQuantile is the highest of the usual percentiles that still has
// at least ten samples beyond it; below 20 samples it is the maximum.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	if n >= 20 {
		return 0.5
	}
	return 1
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies collects per-operation latencies in milliseconds, timed
// from when each operation was due, with failures kept as +Inf.
type latencies struct {
	ms     []float64
	failed int64
}

func (l *latencies) ok(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

func (l *latencies) fail() {
	l.ms = append(l.ms, math.Inf(1))
	l.failed++
}

func (l *latencies) n() int { return len(l.ms) }

// finite reports a latency that is a failure as limitMS×10, so it
// misses the limit by a wide margin while staying a finite number.
func finite(v, limitMS float64) float64 {
	if math.IsInf(v, 1) {
		return limitMS * 10
	}
	return v
}

// summary returns the median and the highest percentile with at least
// ten samples beyond it (see tailQuantile), with the quantile used.
func (l *latencies) summary(limitMS float64) (p50, tail, q float64) {
	s := sortedCopy(l.ms)
	q = tailQuantile(len(s))
	return finite(quantile(s, 0.5), limitMS), finite(quantile(s, q), limitMS), q
}

// opWindow is the number of consecutive operations one window of
// steadyTail covers on the serving workloads.
const opWindow = 300

// steadyTail is the end-to-end tail figure: the median, over
// consecutive windows of `window` samples, of each window's p95 (15
// samples beyond it in a 300-operation window; the maximum in a window
// of a few batch runs). On a shared host a burst of slow disk or CPU
// moves one window, not the figure; a program that got slower moves
// every window. Fewer than two windows give the p95 of all samples.
func steadyTail(ms []float64, window int, limitMS float64) float64 {
	k := len(ms) / window
	if k < 2 {
		return finite(quantile(sortedCopy(ms), 0.95), limitMS)
	}
	tails := make([]float64, k)
	for i := range tails {
		w := sortedCopy(ms[i*len(ms)/k : (i+1)*len(ms)/k])
		tails[i] = finite(quantile(w, 0.95), limitMS)
	}
	return median(tails)
}

// growing reports a backlog that kept growing through a rung: the
// median latency of the last tenth of operations is more than twice
// that of the first tenth and above a quarter of the limit.
func (l *latencies) growing(limitMS float64) bool {
	n := len(l.ms) / 10
	if n < 5 {
		return false
	}
	first := median(l.ms[:n])
	last := median(l.ms[len(l.ms)-n:])
	return last > 2*first && last > limitMS/4
}

// processCPU returns the CPU time this process has used, user and
// system. Unlike wall time it does not count time the hypervisor gave
// to other guests, so a cost per operation read from it moves with
// the program more than with the host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMSPerOp is the process CPU time used since cpu0 per operation.
func cpuMSPerOp(cpu0 time.Duration, ops int) float64 {
	return float64(processCPU()-cpu0) / 1e6 / float64(ops)
}
