package telemetry

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// patLat/patFails derive an op's latency and failure count from the index
// of the window it lands in. Every op in window w carries exactly
// (patLat(w), patFails(w)), so any internally consistent window snapshot
// must satisfy Sum == Ops*patLat(w), Fails == Ops*patFails(w), Count ==
// Ops, Max == patLat(w). A torn read mixing two windows' fields breaks at
// least one of these — that is the oracle.
func patLat(widx uint64) uint64   { return widx*3 + 1 }
func patFails(widx uint64) uint64 { return widx % 5 }

func checkWindowPattern(t *testing.T, every uint64, win StreamWindow) {
	t.Helper()
	if win.End != win.Start+every {
		t.Fatalf("window [%d,%d) is not %d wide", win.Start, win.End, every)
	}
	if win.Start%every != 0 {
		t.Fatalf("window start %d not aligned to %d", win.Start, every)
	}
	widx := win.Start / every
	l, f := patLat(widx), patFails(widx)
	if win.Count != win.Ops {
		t.Fatalf("window %d: count %d != ops %d (torn read escaped)", widx, win.Count, win.Ops)
	}
	if win.Sum != win.Ops*l {
		t.Fatalf("window %d: sum %d != ops %d * lat %d (torn read escaped)", widx, win.Sum, win.Ops, l)
	}
	if win.Fails != win.Ops*f {
		t.Fatalf("window %d: fails %d != ops %d * %d (torn read escaped)", widx, win.Fails, win.Ops, f)
	}
	if win.Ops > 0 && win.Max != l {
		t.Fatalf("window %d: max %d != lat %d (torn read escaped)", widx, win.Max, l)
	}
}

func TestStreamWindows(t *testing.T) {
	const every = 1000
	s := NewStream(1, every, 8)
	// 10 ops per window across 3 full windows, patterned.
	for c := uint64(0); c < 3*every; c += every / 10 {
		widx := c / every
		s.Tick(0, c, patLat(widx), patFails(widx))
	}
	// Windows 0 and 1 are complete; window 2 is live until the clock
	// crosses its end.
	wins, retries := s.ReadCore(0, nil)
	if retries != 0 {
		t.Fatalf("unexpected seqlock retries on quiet stream: %d", retries)
	}
	if len(wins) != 2 {
		t.Fatalf("published windows = %d, want 2", len(wins))
	}
	for i, w := range wins {
		if w.Start != uint64(i)*every {
			t.Fatalf("window %d start = %d", i, w.Start)
		}
		if w.Ops != 10 {
			t.Fatalf("window %d ops = %d, want 10", i, w.Ops)
		}
		checkWindowPattern(t, every, w)
	}
	// Flush publishes the live tail.
	s.Flush(0)
	wins, _ = s.ReadCore(0, wins)
	if len(wins) != 3 {
		t.Fatalf("after flush, windows = %d, want 3", len(wins))
	}
	checkWindowPattern(t, every, wins[2])
	h, fails := s.Cumulative()
	if h.Count() != 30 {
		t.Fatalf("total ops = %d, want 30", h.Count())
	}
	wantFails := uint64(10 * (patFails(0) + patFails(1) + patFails(2)))
	if fails != wantFails {
		t.Fatalf("total fails = %d, want %d", fails, wantFails)
	}
}

func TestStreamUnalignedEnroll(t *testing.T) {
	const every = 1000
	s := NewStream(2, every, 8)
	// Core 0 starts mid-window, core 1 at a boundary: both must align
	// their windows to multiples of every so merging by Start is sound.
	s.Tick(0, 2345, patLat(2), patFails(2))
	s.Tick(1, 2000, patLat(2), patFails(2))
	for c := uint64(3000); c < 4000; c += 100 {
		s.Tick(0, c, patLat(3), patFails(3))
		s.Tick(1, c, patLat(3), patFails(3))
	}
	for i := 0; i < 2; i++ {
		wins, _ := s.ReadCore(i, nil)
		if len(wins) != 1 {
			t.Fatalf("core %d windows = %d, want 1", i, len(wins))
		}
		if wins[0].Start != 2000 {
			t.Fatalf("core %d window start = %d, want 2000", i, wins[0].Start)
		}
		checkWindowPattern(t, every, wins[0])
	}
}

func TestStreamIdleFastForward(t *testing.T) {
	const every, depth = 1000, 4
	s := NewStream(1, every, depth)
	s.Tick(0, 500, patLat(0), patFails(0))
	// Jump 100 windows ahead: the stream must not publish 100 empty
	// windows one by one — the ring only holds depth anyway.
	s.Tick(0, 100_500, patLat(100), patFails(100))
	wins, _ := s.ReadCore(0, nil)
	if len(wins) == 0 || len(wins) > depth {
		t.Fatalf("windows after idle gap = %d, want 1..%d", len(wins), depth)
	}
	// The op from window 0 must have been published before the gap was
	// skipped — the ring may since have overwritten it, but the totals
	// must not lose it.
	if h, _ := s.Cumulative(); h.Count() != 2 {
		t.Fatalf("totals ops = %d, want 2", h.Count())
	}
	// Newest published window precedes the live window 100.
	last := wins[len(wins)-1]
	if last.End > 100_000 {
		t.Fatalf("published window end %d overlaps live window", last.End)
	}
	s.Flush(0)
	wins, _ = s.ReadCore(0, wins)
	last = wins[len(wins)-1]
	if last.Start != 100_000 || last.Ops != 1 {
		t.Fatalf("flushed window = %+v, want start 100000 ops 1", last)
	}
}

func TestStreamRingOverwrite(t *testing.T) {
	const every, depth = 100, 4
	s := NewStream(1, every, depth)
	// Publish 20 windows, one op each.
	for w := uint64(0); w < 20; w++ {
		s.Tick(0, w*every, patLat(w), patFails(w))
	}
	wins, _ := s.ReadCore(0, nil)
	if len(wins) != depth {
		t.Fatalf("windows = %d, want ring depth %d", len(wins), depth)
	}
	for i, w := range wins {
		// Oldest-first: windows 15..18 (19 is live).
		want := uint64(15 + i)
		if w.Start/every != want {
			t.Fatalf("window %d start = %d, want window %d", i, w.Start, want)
		}
		checkWindowPattern(t, every, w)
	}
}

// TestStreamTornSlotSkipped pins the reader's bounded-retry contract: a
// slot whose writer parked mid-publish (sequence left odd) burns the
// retry budget and is skipped — never returned torn, and never spun on
// forever.
func TestStreamTornSlotSkipped(t *testing.T) {
	const every = 1000
	s := NewStream(1, every, 8)
	for c := uint64(0); c < 3*every; c += every / 4 {
		widx := c / every
		s.Tick(0, c, patLat(widx), patFails(widx))
	}
	wins, retries := s.ReadCore(0, nil)
	if len(wins) != 2 || retries != 0 {
		t.Fatalf("baseline: windows=%d retries=%d, want 2, 0", len(wins), retries)
	}

	s.cores[0].ring.tearNewest() // window 1's slot now looks mid-publish
	wins, retries = s.ReadCore(0, wins)
	if len(wins) != 1 {
		t.Fatalf("torn: windows = %d, want 1 (torn slot skipped)", len(wins))
	}
	if wins[0].Start != 0 {
		t.Fatalf("torn: surviving window start = %d, want 0", wins[0].Start)
	}
	if retries < seqRetryLimit {
		t.Fatalf("torn: retries = %d, want >= %d", retries, seqRetryLimit)
	}
	merged, mretries := s.ReadMergedWindows()
	if len(merged) != 1 || mretries < seqRetryLimit {
		t.Fatalf("torn merged: windows=%d retries=%d", len(merged), mretries)
	}

	s.cores[0].ring.tearNewest() // heal
	wins, retries = s.ReadCore(0, wins)
	if len(wins) != 2 || retries != 0 {
		t.Fatalf("healed: windows=%d retries=%d, want 2, 0", len(wins), retries)
	}
	checkWindowPattern(t, every, wins[1])
}

// TestStreamConcurrentReaders is the -race stress for the streaming read
// path: cores write patterned windows flat out while readers snapshot
// them, and every escaped window must satisfy the pattern oracle exactly.
func TestStreamConcurrentReaders(t *testing.T) {
	const (
		cores   = 4
		readers = 4
		every   = 1000
		opsPerW = 8
		windows = 400
	)
	s := NewStream(cores, every, 16)
	var done atomic.Bool
	var wg sync.WaitGroup

	var sawWindows [readers]uint64
	var sawRetries [readers]uint64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]StreamWindow, 0, s.Depth())
			var lastOps uint64
			// The last pass is one that began after the writers finished: on
			// a loaded two-CPU host they can finish before a reader is first
			// scheduled, or between its reads and its loop test, and the
			// windows they left in the rings are still there to check.
			for last := false; !last; {
				last = done.Load()
				for i := 0; i < cores; i++ {
					var retries int
					buf, retries = s.ReadCore(i, buf)
					sawRetries[r] += uint64(retries)
					for _, w := range buf {
						checkWindowPattern(t, every, w)
						sawWindows[r]++
					}
				}
				merged, retries := s.ReadMergedWindows()
				sawRetries[r] += uint64(retries)
				for _, w := range merged {
					checkWindowPattern(t, every, w)
				}
				for i := 1; i < len(merged); i++ {
					if merged[i-1].Start >= merged[i].Start {
						t.Errorf("merged windows unsorted: %d then %d", merged[i-1].Start, merged[i].Start)
					}
				}
				h, _ := s.Cumulative()
				if h.Count() < lastOps {
					t.Errorf("totals regressed: %d after %d", h.Count(), lastOps)
				}
				lastOps = h.Count()
			}
		}(r)
	}

	for i := 0; i < cores; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := uint64(0); c < windows*every; c += every / opsPerW {
				widx := c / every
				s.Tick(i, c, patLat(widx), patFails(widx))
			}
			s.Flush(i)
		}(i)
	}

	// Writers finish when the totals reach the full op count; then stop
	// the readers and wait everyone out.
	want := uint64(cores * windows * opsPerW)
	for {
		if h, _ := s.Cumulative(); h.Count() >= want {
			break
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()

	var windowsSeen uint64
	for r := 0; r < readers; r++ {
		windowsSeen += sawWindows[r]
	}
	if windowsSeen == 0 {
		t.Fatal("readers never observed a published window (vacuous stress)")
	}
	h, fails := s.Cumulative()
	if want := uint64(cores * windows * opsPerW); h.Count() != want {
		t.Fatalf("total ops = %d, want %d", h.Count(), want)
	}
	var wantFails uint64
	for w := uint64(0); w < windows; w++ {
		wantFails += patFails(w) * opsPerW
	}
	wantFails *= cores
	if fails != wantFails {
		t.Fatalf("total fails = %d, want %d", fails, wantFails)
	}
	t.Logf("readers saw %d consistent windows, %d+%d+%d+%d seqlock retries",
		windowsSeen, sawRetries[0], sawRetries[1], sawRetries[2], sawRetries[3])
}

// TestStreamCumulativeCountMatchesBuckets pins the shape of the cumulative
// histogram. On every read, with two writers ticking flat out and a third
// core idle, the count is exactly the bucket total — what makes the
// Prometheus exposition's _count, +Inf bucket and last finite bucket agree
// under load, not just at quiescence — min <= max, and neither the count
// nor the fails regress. Once the writers stop, the histogram equals a
// plain Histogram fed the same latencies, field for field and bucket for
// bucket, so Summary's quantiles and max are exact. The latencies include
// 0 and values past 2^40, and each writer jumps an idle gap longer than
// the ring.
func TestStreamCumulativeCountMatchesBuckets(t *testing.T) {
	const every, depth, writers, minOps = 1000, 4, 2, 10000
	s := NewStream(writers+1, every, depth)
	var done atomic.Bool
	var wg sync.WaitGroup
	var refs [writers]Histogram
	var refFails [writers]uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clock := uint64(w)
			for i := uint64(0); i < minOps || !done.Load(); i++ {
				lat := (i*7 + uint64(w)) % 4096
				switch {
				case i%1000 == 0:
					lat = 0
				case i%997 == 0:
					lat = 1<<40 + i<<w
				case i == minOps/2:
					lat = math.MaxUint64 - uint64(w)
				}
				if i == minOps/3 {
					clock += 10 * depth * every
				}
				clock++
				s.Tick(w, clock, lat, i%3)
				refs[w].Observe(lat)
				refFails[w] += i % 3
			}
		}(w)
	}
	var last, lastFails uint64
	for n := 0; n < 20000; n++ {
		h, fails := s.Cumulative()
		var total uint64
		for b := 0; b < NumBuckets; b++ {
			total += h.Bucket(b)
		}
		if h.Count() != total {
			t.Fatalf("read %d: count %d != bucket total %d", n, h.Count(), total)
		}
		if h.Count() > 0 && h.Min() > h.Max() {
			t.Fatalf("read %d: min %d > max %d", n, h.Min(), h.Max())
		}
		if h.Count() < last || fails < lastFails {
			t.Fatalf("read %d: count/fails regressed: %d/%d after %d/%d", n, h.Count(), fails, last, lastFails)
		}
		last, lastFails = h.Count(), fails
	}
	done.Store(true)
	wg.Wait()

	var ref Histogram
	for w := range refs {
		ref.Merge(&refs[w])
	}
	got, fails := s.Cumulative()
	if got != ref {
		t.Fatalf("quiescent cumulative %s (sum %d, min %d) != plain histogram %s (sum %d, min %d)",
			got.String(), got.Sum(), got.Min(), ref.String(), ref.Sum(), ref.Min())
	}
	for _, q := range []float64{0.50, 0.99} {
		if g, r := got.Quantile(q), ref.Quantile(q); g != r {
			t.Fatalf("p%.0f = %v, plain histogram %v", q*100, g, r)
		}
	}
	if want := refFails[0] + refFails[1]; fails != want {
		t.Fatalf("fails = %d, want %d", fails, want)
	}
	if got.Count() < last {
		t.Fatalf("quiescent count %d below a mid-run count %d", got.Count(), last)
	}
}

func TestStreamAllocFree(t *testing.T) {
	const every = 1000
	s := NewStream(1, every, 8)
	clock := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		widx := clock / every
		s.Tick(0, clock, patLat(widx), patFails(widx))
		clock += every / 4 // crosses a window boundary every 4th tick
	}); n != 0 {
		t.Fatalf("Stream.Tick allocates %.1f/op, want 0", n)
	}
	buf := make([]StreamWindow, 0, s.Depth())
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = s.ReadCore(0, buf)
	}); n != 0 {
		t.Fatalf("Stream.ReadCore allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = s.Cumulative()
	}); n != 0 {
		t.Fatalf("Stream.Cumulative allocates %.1f/op, want 0", n)
	}
}
