package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heapObjects is the runtime/metrics name for the bytes of heap memory
// occupied by objects, live or not yet swept — the HeapAlloc figure,
// read without stopping the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the peak heap above a GC'd baseline while an
// iteration runs.
type heapSampler struct {
	base uint64
	peak uint64
	stop chan struct{}
	done chan struct{}
}

// startHeap collects garbage, takes the baseline and samples the heap
// every millisecond until stop.
func startHeap() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	h.base = read()
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.peak = max(h.peak, read())
				return
			case <-tick.C:
				h.peak = max(h.peak, read())
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak growth in MB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak-h.base) / (1 << 20)
}

// quantile is the q-quantile of xs, interpolating linearly between
// the closest ranks (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is the middle value of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed span of time in seconds since some origin.
type interval struct{ lo, hi float64 }

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs []interval, lo, hi float64) float64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	total, end := 0.0, lo
	for _, iv := range s {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// cpuTimes is the machine-wide CPU time from /proc/stat, in clock
// ticks: all of it, and the part the hypervisor stole from this guest.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{} // not Linux: no steal figure
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user … steal; guest time is already in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// stealShare is the share of CPU time stolen between c and later: the
// part of a run's noise that came from other guests on the host.
func (c cpuTimes) stealShare(later cpuTimes) (float64, bool) {
	if !c.ok || !later.ok || later.total <= c.total {
		return 0, false
	}
	return float64(later.steal-c.steal) / float64(later.total-c.total), true
}

// cpuTime is the user and the system CPU time this process has used,
// in seconds. The kernel does not charge hypervisor steal to it.
func cpuTime() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds()
}

// threadCPU is the CPU time of the calling OS thread in seconds, from
// the scheduler's nanosecond count in /proc/thread-self/schedstat
// (getrusage counts a single thread only in clock ticks).
func threadCPU() float64 {
	data, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	f, _, _ := strings.Cut(string(data), " ")
	ns, err := strconv.ParseUint(f, 10, 64)
	if err != nil {
		return 0
	}
	return float64(ns) / 1e9
}

// cpuSeconds is the process's user plus system CPU time, in seconds.
func cpuSeconds() float64 {
	u, s := cpuTime()
	return u + s
}

// The host's speed drifts: on a shared 2-core guest the same code takes
// up to 1.6x more CPU time while other guests are busy than while the
// host is idle, and steal is only part of that. CPU times are therefore
// reported in reference seconds: each timed stretch of work is preceded
// by a fixed reference kernel, and its CPU time is scaled by
// refKernelS over the kernel's CPU time. A reference second is the CPU
// time in which the host runs the kernel 1/refKernelS times.
//
// The kernel sorts 2^18 pseudo-random keys (2 MB) through sort.Slice:
// branchy Go code with closure calls over a working set larger than a
// core's own caches. The host's speed moves in steps that last from
// under a second to minutes (the kernel took 46 to 70 ms), and the
// workloads' CPU time moves with it. Candidates tried against the
// workloads over runs spanning such steps: a latency-bound hash over an
// L2-sized buffer, a dependent pointer chase over 8 MB, map inserts,
// and sorts of 16k and 256k keys; the 256k sort tracked the workloads'
// CPU time best, as its working set makes it about as sensitive to a
// busy neighbour on the same core.
//
// refKernelS is the kernel's CPU time that one reference second scales
// to: about its median on the 2-core guest the benchmark was defined on.
const refKernelS = 0.055

// refKernel collects garbage, then runs the reference kernel on one OS
// thread and returns that thread's CPU time: the runtime's background
// work on other threads, such as returning freed memory to the OS,
// stays out of it.
func refKernel() float64 {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	keys := make([]uint64, 1<<18)
	c0 := threadCPU()
	refSink += sortKernel(keys)
	return threadCPU() - c0
}

// refSink keeps the kernel's result live.
var refSink uint64

// sortKernel fills keys with xorshift values and sorts them.
func sortKernel(keys []uint64) uint64 {
	x := uint64(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys[0]
}

// refSeconds puts cpu, a CPU time taken right after a kernel run of
// kernel seconds, in reference seconds.
func refSeconds(cpu, kernel float64) float64 { return cpu * refKernelS / kernel }
