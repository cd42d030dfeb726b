package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// Serial and parallel harness runs must be indistinguishable: workers only
// decide when a cell's private simulation runs, never how its result is
// aggregated. Single-simulated-thread cells are fully deterministic (no
// goroutine interleaving inside a cell), so the Points must match *bit for
// bit* across worker counts — any divergence means the parallel path
// changed evaluation order of the non-associative float averaging, or
// leaked state between cells.

func equivalenceExperiment(workers int, tel bool) *SetExperiment {
	e := Fig2(Scale{Threads: []int{1}, OpsPerThread: 60, Trials: 3})
	e.Workers = workers
	e.Telemetry = tel
	e.SampleEvery = 512
	return e
}

func TestParallelRunMatchesSerial(t *testing.T) {
	for _, tel := range []bool{false, true} {
		serial := equivalenceExperiment(0, tel).Run()
		for _, workers := range []int{2, 4, 16} {
			par := equivalenceExperiment(workers, tel).Run()
			if len(par) != len(serial) {
				t.Fatalf("workers=%d: %d points, serial produced %d", workers, len(par), len(serial))
			}
			for i := range serial {
				if !reflect.DeepEqual(par[i], serial[i]) {
					t.Errorf("telemetry=%v workers=%d point %d differs:\n  serial:   %+v\n  parallel: %+v",
						tel, workers, i, serial[i], par[i])
				}
			}
		}
	}

	// NUMA cells at one core on both backends, every field but the host
	// time; elision cells at one thread.
	numa := func(workers int) []NUMAPoint {
		e := NUMASweep(true)
		e.Cores, e.OpsPerThread, e.Workers = []int{1}, 40, workers
		points := e.Run()
		for i := range points {
			points[i].HostSeconds = 0
		}
		return points
	}
	elision := func(workers int) []ElisionPoint {
		e := NewElisionExperiment(true)
		e.Threads, e.OpsPerThread, e.Workers = 1, 60, workers
		return e.Run()
	}
	for _, workers := range []int{2, 16} {
		if s, p := numa(0), numa(workers); len(s) != 4 || !reflect.DeepEqual(s, p) {
			t.Errorf("NUMA workers=%d:\n  serial:   %+v\n  parallel: %+v", workers, s, p)
		}
		if s, p := elision(0), elision(workers); len(s) != 6 || !reflect.DeepEqual(s, p) {
			t.Errorf("elision workers=%d:\n  serial:   %+v\n  parallel: %+v", workers, s, p)
		}
	}
}

// TestParallelRunCellIndexing pins the slot arithmetic: with several
// variants, thread counts, and trials, every (variant, threads) pair must
// appear exactly once and in the serial iteration order.
func TestParallelRunCellIndexing(t *testing.T) {
	e := Fig2(Scale{Threads: []int{1, 2}, OpsPerThread: 30, Trials: 2})
	e.Workers = 4
	points := e.Run()
	if want := len(e.Variants) * len(e.Threads); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	i := 0
	for _, v := range e.Variants {
		for _, n := range e.Threads {
			if points[i].Variant != v.Name || points[i].Threads != n {
				t.Errorf("point %d is (%s, %d), want (%s, %d)",
					i, points[i].Variant, points[i].Threads, v.Name, n)
			}
			i++
		}
	}
}

// TestTrialFold pins how a cell's trials become its point: float fields
// are means summed in trial order, windows and names are trial 0's, the
// latency maximum and peak footprint are maxima, the free list an integer
// mean.
func TestTrialFold(t *testing.T) {
	w := []telemetry.Window{{Start: 0, End: 512, Ops: 9}}
	a, b, c := 0.1, 0.2, 0.3 // (a+b)+c differs from a+(b+c) in float64
	trials := []Point{
		{Variant: "v", Threads: 4, ThroughputMops: a, EnergyPerOp: 3, OpLatMax: 70, PeakLiveLines: 5, FreelistLines: 3, Windows: w},
		{Variant: "v", Threads: 4, ThroughputMops: b, EnergyPerOp: 4, OpLatMax: 90, PeakLiveLines: 9, FreelistLines: 4},
		{Variant: "v", Threads: 4, ThroughputMops: c, EnergyPerOp: 8, OpLatMax: 80, PeakLiveLines: 7, FreelistLines: 4},
	}
	want := Point{Variant: "v", Threads: 4, ThroughputMops: (a + b + c) / 3, EnergyPerOp: 5,
		OpLatMax: 90, PeakLiveLines: 9, FreelistLines: 3, Windows: w}
	if got := foldSetTrials(trials); !reflect.DeepEqual(got, want) {
		t.Errorf("foldSetTrials = %+v\nwant           %+v", got, want)
	}
	v := []VacationPoint{{Variant: "tagged", Threads: 2, AbortsPerTx: 1}, {Variant: "tagged", Threads: 2, AbortsPerTx: 2}}
	if got := meanOfTrials(v); got != (VacationPoint{Variant: "tagged", Threads: 2, AbortsPerTx: 1.5}) {
		t.Errorf("meanOfTrials = %+v", got)
	}
}

// TestForEachCellCoversAll exercises the pool helper directly: every index
// runs exactly once for degenerate and oversubscribed worker counts.
func TestForEachCellCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		const n = 23
		counts := make([]atomic.Int32, n)
		forEachCell(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestVacationParallelMatchesSerial covers the Figure 8 harness's parallel
// path with single-threaded cells.
func TestVacationParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *VacationExperiment {
		e := Fig8(true)
		e.Threads = []int{1}
		e.Trials = 2
		e.Params.Relations = 128
		e.Params.Transactions = 8
		e.Workers = workers
		return e
	}
	serial := mk(0).Run()
	par := mk(4).Run()
	if len(par) != len(serial) {
		t.Fatalf("%d points vs %d", len(par), len(serial))
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Errorf("point %d differs:\n  serial:   %+v\n  parallel: %+v", i, serial[i], par[i])
		}
	}
}
