package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the smallest value with at least q of the sample at or
// below it. An empty sample gives 0.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1])
}

// median of an unsorted sample (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(v, n=4) — the spread the acceptance protocol uses.
// Fewer than two values give 0.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// subSeed derives an independent generator seed from the run seed and a
// position (segment, connection, ...), splitmix64-style, so streams for
// different positions never overlap the way seed+i would.
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += uint64(p)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}
