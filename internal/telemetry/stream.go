package telemetry

import (
	"sort"
	"sync/atomic"
)

// Stream is the mid-run view: per-core time-resolved windows (ops, fails
// and a latency histogram each) that concurrent readers may snapshot WHILE
// the cores are writing. It exists because Core/Sampler are quiescence-only
// by contract — their plain fields are single-writer and merging them
// mid-run is a data race — which is fine for experiment sweeps but useless
// for a network service whose /metrics endpoint must report p99s during
// the run.
//
// The live window accumulates in writer-private plain fields (never read by
// anyone else); when the clock crosses a window boundary the writer
// publishes it as one seqRing record, and readers copy records out of the
// ring, so every escaped snapshot is a window the writer committed whole.
// The per-op cost stays a histogram observe plus uncontended single-writer
// atomics for the cumulative record.
//
// Operations are counted once: an op is one latency observation, so the
// cumulative op total, the cumulative histogram's count and a window's
// Ops/Count are all the sum of the respective buckets. A reader therefore
// never sees a count that disagrees with its own buckets, mid-run included.
// The cumulative per-core counters are plain monotonic atomics readable at
// any instant, which the soak tests assert across scrapes; Cumulative is
// the one reader of them. The quiescent
// Core/Sampler contract is untouched: a Stream is an additional sink, not a
// replacement, and attaching one keeps the hot path at 0 allocs/op (pinned
// by budget tests here and in internal/serve).
type Stream struct {
	every uint64
	depth int
	cores []streamCore
}

// StreamWindow is one consistent published window of one core (or, from
// ReadMergedWindows, of all cores folded together).
type StreamWindow struct {
	// Start/End bound the window in the writer's clock units (the serve
	// layer feeds host nanoseconds since server start).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Ops/Fails are the operations completed and validation/commit
	// failures burned in the window.
	Ops   uint64 `json:"ops"`
	Fails uint64 `json:"fails"`
	// Count/Sum/Max are the window latency histogram's aggregates (Count
	// == Ops: every op is one observation).
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	// P50/P99 are quantiles of the window's latency histogram.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

// windowWords is the size of a published window record: start, end, fails,
// the latency histogram's sum, max and min, then its buckets.
const windowWords = 6 + NumBuckets

// streamCore is one core's streaming state: a writer-private live window
// plus the shared ring and cumulative totals.
type streamCore struct {
	// Writer-private accumulation; only the owning goroutine touches these.
	enrolled  bool
	winStart  uint64
	liveFails uint64
	live      Histogram

	// Shared with readers.
	ring seqRing // published windows

	// Cumulative: failures and the latency histogram, which Cumulative
	// reads mid-run. Only the owning writer stores them, so min and max
	// take a load and a compare, no CAS, and Tick stores them before the
	// bucket add.
	fails, cumSum, cumMin, cumMax atomic.Uint64
	cumBuckets                    [NumBuckets]atomic.Uint64

	_ [64]byte // keep adjacent cores' hot atomics off one line
}

// NewStream creates streaming telemetry for n cores with the given clock
// interval per window and a ring of depth published windows per core.
// every must be > 0; depth < 2 is raised to 2.
func NewStream(n int, every uint64, depth int) *Stream {
	if every == 0 {
		panic("telemetry: stream interval must be > 0")
	}
	if depth < 2 {
		depth = 2
	}
	s := &Stream{every: every, depth: depth, cores: make([]streamCore, n)}
	for i := range s.cores {
		s.cores[i].ring = newSeqRing(depth, windowWords)
		s.cores[i].cumMin.Store(^uint64(0))
	}
	return s
}

// Every returns the window width in clock units.
func (s *Stream) Every() uint64 { return s.every }

// Depth returns the per-core ring capacity in windows.
func (s *Stream) Depth() int { return s.depth }

// Tick records one completed operation for core i: the clock at completion,
// the op's latency, and the failures it burned. It must only be called by
// core i's owning goroutine (or under the same lock serializing that
// core's ops). Allocation-free, including window publication.
func (s *Stream) Tick(i int, clock, latency, fails uint64) {
	c := &s.cores[i]
	if !c.enrolled {
		c.enrolled = true
		// Align the window origin to a multiple of the interval so every
		// core's windows share boundaries and merge by Start.
		c.winStart = clock - clock%s.every
	}
	for clock-c.winStart >= s.every {
		if c.live.count == 0 {
			// Fast-forward an idle gap: anything older than the ring can
			// hold would be overwritten unread, so publish at most depth
			// empty windows.
			gap := (clock - c.winStart) / s.every
			if gap > uint64(s.depth) {
				c.winStart += (gap - uint64(s.depth)) * s.every
			}
		}
		c.publish(s)
	}
	c.liveFails += fails
	c.live.Observe(latency)
	if fails != 0 {
		c.fails.Add(fails)
	}
	if latency < c.cumMin.Load() {
		c.cumMin.Store(latency)
	}
	if latency > c.cumMax.Load() {
		c.cumMax.Store(latency)
	}
	c.cumSum.Add(latency)
	c.cumBuckets[BucketIndex(latency)].Add(1)
}

// Flush publishes core i's live window even though its interval has not
// elapsed, so a final scrape after shutdown sees the run's tail. Writer-
// side: same ownership rule as Tick.
func (s *Stream) Flush(i int) {
	if c := &s.cores[i]; c.live.count != 0 {
		c.publish(s)
	}
}

// publish moves the live window into the ring.
func (c *streamCore) publish(s *Stream) {
	w := c.ring.begin()
	w[0].Store(c.winStart)
	w[1].Store(c.winStart + s.every)
	w[2].Store(c.liveFails)
	w[3].Store(c.live.sum)
	w[4].Store(c.live.max)
	w[5].Store(c.live.Min())
	for b, n := range c.live.buckets {
		w[6+b].Store(n)
	}
	c.ring.commit()
	c.winStart += s.every
	c.liveFails = 0
	c.live.Reset()
}

// slotCopy is a reader's consistent copy of one published window.
type slotCopy struct {
	start, end, fails uint64
	hist              Histogram
}

// readWindow copies published window i out of the ring. It reports whether
// a consistent copy was obtained within the retry budget and how many
// retries were burned.
func (c *streamCore) readWindow(i uint64, out *slotCopy) (ok bool, retries int) {
	var w [windowWords]uint64
	if ok, retries = c.ring.read(i, w[:]); !ok {
		return false, retries
	}
	out.start, out.end, out.fails = w[0], w[1], w[2]
	out.hist = Histogram{sum: w[3], max: w[4], min: w[5]}
	for b := range out.hist.buckets {
		out.hist.buckets[b] = w[6+b]
		out.hist.count += w[6+b]
	}
	return true, retries
}

// window renders a slot copy as a StreamWindow.
func (sc *slotCopy) window() StreamWindow {
	return StreamWindow{
		Start: sc.start,
		End:   sc.end,
		Ops:   sc.hist.Count(),
		Fails: sc.fails,
		Count: sc.hist.Count(),
		Sum:   sc.hist.Sum(),
		Max:   sc.hist.Max(),
		P50:   sc.hist.Quantile(0.50),
		P99:   sc.hist.Quantile(0.99),
	}
}

// ReadCore snapshots core i's published windows, oldest first, into
// buf[:0] (allocation-free when cap(buf) >= Depth()). It returns the
// windows and the seqlock retries burned; slots that stayed inconsistent
// past the retry budget are skipped, so every returned window is
// internally consistent. Safe to call from any goroutine at any time.
func (s *Stream) ReadCore(i int, buf []StreamWindow) ([]StreamWindow, int) {
	c := &s.cores[i]
	buf = buf[:0]
	retries := 0
	var sc slotCopy
	for w, hi := c.ring.span(); w < hi; w++ {
		ok, r := c.readWindow(w, &sc)
		retries += r
		if ok {
			buf = append(buf, sc.window())
		}
	}
	return buf, retries
}

// Cumulative returns all cores' cumulative latency histogram and failures
// in one walk. Each core's buckets are loaded before its min and max, so
// the count is the bucket total and min <= max; every counter is monotonic,
// so repeated reads never regress. At quiescence it equals one Histogram
// fed every op. Safe at any time; allocation-free.
func (s *Stream) Cumulative() (h Histogram, fails uint64) {
	for i := range s.cores {
		c := &s.cores[i]
		var ch Histogram
		for b := range ch.buckets {
			ch.buckets[b] = c.cumBuckets[b].Load()
			ch.count += ch.buckets[b]
		}
		ch.sum, ch.min, ch.max = c.cumSum.Load(), c.cumMin.Load(), c.cumMax.Load()
		h.Merge(&ch)
		fails += c.fails.Load()
	}
	return h, fails
}

// CumulativeLatency adds Cumulative's power-of-two buckets into buckets
// and returns its count and sum: the Prometheus counter-histogram view.
func (s *Stream) CumulativeLatency(buckets *[NumBuckets]uint64) (count, sum uint64) {
	h, _ := s.Cumulative()
	for b, n := range h.buckets {
		buckets[b] += n
	}
	return h.count, h.sum
}

// ReadMergedWindows snapshots every core's ring and folds windows with the
// same Start together (cores align their window origins, so equal Start
// means the same clock span), merging the latency histograms bucket-wise
// before computing quantiles. Windows come back sorted by Start. This is
// the /metrics scrape path; unlike ReadCore it allocates.
func (s *Stream) ReadMergedWindows() ([]StreamWindow, int) {
	merged := map[uint64]*slotCopy{}
	retries := 0
	var sc slotCopy
	for i := range s.cores {
		c := &s.cores[i]
		for w, hi := c.ring.span(); w < hi; w++ {
			ok, r := c.readWindow(w, &sc)
			retries += r
			if !ok {
				continue
			}
			if a := merged[sc.start]; a != nil {
				a.fails += sc.fails
				a.hist.Merge(&sc.hist)
			} else {
				first := sc
				merged[sc.start] = &first
			}
		}
	}
	out := make([]StreamWindow, 0, len(merged))
	for _, a := range merged {
		out = append(out, a.window())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, retries
}
