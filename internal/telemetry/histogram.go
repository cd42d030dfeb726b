// Package telemetry is the allocation-free metrics layer behind the
// experiment harness: power-of-two-bucket histograms, per-core single-writer
// recording structs merged at quiescence (mirroring the machine backend's
// CoreStats ownership discipline), a time-resolved interval sampler, and a
// Perfetto/Chrome trace-event exporter.
//
// The paper validates its headline claims by reading simulator traces
// ("examination of the simulator traces confirms that this performance
// improvement comes because of reduced coherence messaging"); end-of-run
// aggregates can show *that* a figure's shape reproduces but not *why*.
// This package records the distributions (per-op latency in simulated
// cycles, retries per op, tag-set occupancy, validate/VAS/IAS failure
// streaks) and the phase dynamics (per-window deltas) that the aggregates
// average away.
//
// Everything on the recording path is allocation-free and cheap enough to
// leave enabled during measured sweeps: histograms are fixed arrays,
// streaks are two words of state, and the sampler writes into buffers
// preallocated at enrolment. Only construction and export allocate.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// NumBuckets is the number of histogram buckets: bucket i counts values v
// with bits.Len64(v) == i, i.e. bucket 0 holds the value 0 and bucket i>0
// holds [2^(i-1), 2^i). 65 buckets cover the full uint64 range.
const NumBuckets = 65

// Histogram is a fixed-size power-of-two-bucket histogram. Observe is
// allocation-free and costs a handful of instructions, so it can run on the
// simulator's per-operation path. A Histogram is single-writer; merge
// concurrent writers' histograms at quiescence with Merge.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	min     uint64 // valid when count > 0
	buckets [NumBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[BucketIndex(v)]++
}

// BucketIndex returns the bucket index holding v: bits.Len64(v), i.e. bucket 0
// holds 0 and bucket b>0 holds [2^(b-1), 2^b). The Prometheus exposition
// uses it to place exemplars.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketUpper returns bucket b's inclusive upper value bound (2^b - 1;
// bucket 0 holds only the value 0). The Prometheus exposition uses it as
// the le label.
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<b - 1
}

// Bucket returns bucket b's count (see BucketIndex).
func (h *Histogram) Bucket(b int) uint64 { return h.buckets[b] }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]): the
// observation rank is located in its bucket and the value is interpolated
// linearly across the bucket's range, clamped to the observed min/max so
// p0/p100 are exact.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.Min())
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count)
	var cum float64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / float64(n)
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, float64(h.Min())), float64(h.max))
		}
		cum = next
	}
	return float64(h.max)
}

// bucketBounds returns the value range [lo, hi) covered by bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (b - 1)), float64(uint64(1)<<(b-1)) * 2
}

// Merge folds o into h. Merging concurrent writers' histograms is only
// meaningful at quiescence.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// String renders a one-line summary ("n=1200 mean=410.2 p50=389 p99=2012
// max=4096"), for stress-harness logs.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50=%.0f p99=%.0f max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.max)
	return b.String()
}
