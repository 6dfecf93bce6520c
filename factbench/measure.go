package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the cumulative heap allocation counter without
// stopping the world; spans use it, at a granularity of one span
// refill, which is far below the megabytes the traced layers allocate.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// rssSampler reads the process's resident set size from
// /proc/self/statm into a fixed buffer, so sampling after every op
// allocates nothing.
type rssSampler struct {
	f    *os.File
	buf  [128]byte
	page int64
	peak int64
}

func newRSSSampler() *rssSampler {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return &rssSampler{}
	}
	return &rssSampler{f: f, page: int64(os.Getpagesize())}
}

// sample records the current RSS into the running peak.
func (r *rssSampler) sample() {
	if r.f == nil {
		return
	}
	n, _ := r.f.ReadAt(r.buf[:], 0)
	// statm: size resident shared ... (pages); take the second field.
	i := 0
	for i < n && r.buf[i] != ' ' {
		i++
	}
	j := i + 1
	for j < n && r.buf[j] != ' ' {
		j++
	}
	if j > n || i+1 >= j {
		return
	}
	pages, err := strconv.ParseInt(string(r.buf[i+1:j]), 10, 64)
	if err != nil {
		return
	}
	if rss := pages * r.page; rss > r.peak {
		r.peak = rss
	}
}

func (r *rssSampler) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the steadiness mode reports the
// spread the way the acceptance check computes it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		q[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
