package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/vacation"
	"repro/internal/vtags"
	"repro/internal/workload"
)

func tinyScale() Scale {
	return Scale{Threads: []int{1, 2}, OpsPerThread: 60, Trials: 1}
}

func TestListExperimentProducesPoints(t *testing.T) {
	e := Fig2(tinyScale())
	e.KeyRange = 64
	points := e.Run()
	if len(points) != 3*2 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	for _, p := range points {
		if p.ThroughputMops <= 0 {
			t.Fatalf("%s@%d: non-positive throughput", p.Variant, p.Threads)
		}
		if p.MissRatePct < 0 || p.MissRatePct > 100 {
			t.Fatalf("%s@%d: miss rate %f", p.Variant, p.Threads, p.MissRatePct)
		}
		if p.EnergyPerOp <= 0 {
			t.Fatalf("%s@%d: non-positive energy", p.Variant, p.Threads)
		}
	}
}

func TestTreeExperimentProducesPoints(t *testing.T) {
	e := Fig6(tinyScale())
	e.KeyRange = 256
	e.OpsPerThread = 80
	points := e.Run()
	if len(points) != 2*2 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.ThroughputMops <= 0 {
			t.Fatalf("%s@%d: non-positive throughput", p.Variant, p.Threads)
		}
	}
}

// TestReclaimExperimentProducesPoints: the reclamation experiment must
// report the footprint/latency metrics for the pooled variants only, and
// the pooled variants must actually recycle (non-zero free list or a peak
// below the leak-everything control would both do; we assert the direct
// signal, a positive peak-live-lines reading with telemetry quantiles).
func TestReclaimExperimentProducesPoints(t *testing.T) {
	e := ReclaimExperiment(tinyScale())
	e.KeyRange = 256
	e.OpsPerThread = 120
	e.Telemetry = true
	points := e.Run()
	if len(points) != 3*2 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	for _, p := range points {
		if p.ThroughputMops <= 0 {
			t.Fatalf("%s@%d: non-positive throughput", p.Variant, p.Threads)
		}
		switch p.Variant {
		case "none":
			if p.PeakLiveLines != 0 || p.RetireFreeP99 != 0 {
				t.Fatalf("control variant carries reclamation metrics: %+v", p)
			}
		default:
			if p.PeakLiveLines <= 0 {
				t.Fatalf("%s@%d: no footprint reading: %+v", p.Variant, p.Threads, p)
			}
			if p.RetireFreeP99 < p.RetireFreeP50 {
				t.Fatalf("%s@%d: inverted retire-free quantiles: %+v", p.Variant, p.Threads, p)
			}
		}
	}
	var buf bytes.Buffer
	e.Print(&buf, points)
	for _, want := range []string{"retire-free p99", "peak live lines", "free-list lines"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("reclamation table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSpeedup(t *testing.T) {
	points := []Point{
		{Variant: "fast", Threads: 4, ThroughputMops: 3},
		{Variant: "slow", Threads: 4, ThroughputMops: 2},
	}
	if s := Speedup(points, "fast", "slow", 4); s < 1.49 || s > 1.51 {
		t.Fatalf("speedup = %f, want 1.5", s)
	}
	if s := Speedup(points, "fast", "missing", 4); s != 0 {
		t.Fatalf("missing baseline: %f", s)
	}
}

func TestVacationExperimentQuick(t *testing.T) {
	e := Fig8(true)
	e.Threads = []int{1, 2}
	e.Params.Relations = 128
	e.Params.Transactions = 16
	points := e.Run()
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.ThroughputKtx <= 0 {
			t.Fatalf("%s@%d: non-positive throughput", p.Variant, p.Threads)
		}
	}
}

func TestAllFigureDefinitionsConstruct(t *testing.T) {
	sc := QuickScale()
	for _, e := range []*SetExperiment{Fig2(sc), Fig4(sc), Fig5(sc), Fig6(sc), Fig7(sc), SkipExperiment(sc), ReclaimExperiment(sc)} {
		if e.Name == "" || e.Title == "" || len(e.Variants) < 2 || len(e.Threads) == 0 {
			t.Fatalf("experiment %q badly formed", e.Name)
		}
	}
	if e := Fig8(true); e.Params.PercentUser != 90 || e.Params.QueriesPerTx != 4 {
		t.Fatal("Fig8 parameters drifted from the paper")
	}
	if p := vacation.PaperParams(); p.Relations != 16384 || p.Transactions != 4096 {
		t.Fatal("paper parameters drifted")
	}
}

// TestDiffToPoint pins the timed phase's stats diff and the arithmetic
// every figure's point is reduced with.
func TestDiffToPoint(t *testing.T) {
	cfg := machine.DefaultConfig(1)
	cfg.MemBytes = 1 << 20
	m := machine.New(cfg)
	th := m.Thread(0)
	a := m.Alloc(2)
	th.Store(a, 1) // before the phase: not counted
	before := m.Snapshot()
	ph := timed(m, func() uint64 {
		th.Load(a)
		th.Store(a.Plus(1), 2)
		th.CAS(a, 1, 3)
		return 7
	})
	after := m.Snapshot()
	if ph.Ops != 7 || ph.Loads != after.Loads-before.Loads || ph.Stores != 1 || ph.CASes != 1 ||
		ph.MaxCycles != after.MaxCycles-before.MaxCycles || ph.Energy != after.Energy-before.Energy ||
		ph.MaxCycles == 0 || ph.clockHz != cfg.ClockHz {
		t.Fatalf("phase = %+v\nbefore = %+v\nafter = %+v", ph, before, after)
	}
	ran := false
	if ph := timed(vtags.New(1<<20, 1), func() uint64 { ran = true; return 3 }); !ran || ph != (phase{}) {
		t.Fatalf("vtags phase = %+v (ran %v), want only the run", ph, ran)
	}

	p := pointOf("x", 2, phase{Stats: machine.Stats{
		Ops: 500, MaxCycles: 1_000_000_000, Loads: 1000, Stores: 100,
		L1Hits: 900, L2Hits: 50, MemFills: 50, Energy: 5000,
		Validates: 100, ValidateFails: 10,
		VASAttempts: 30, VASFails: 3, IASAttempts: 10, IASFails: 1,
		SpuriousEvictions: 2, InvalidationsSent: 250,
	}, clockHz: 1e9})
	want := Point{Variant: "x", Threads: 2, ThroughputMops: 0.0005, MissRatePct: 10, EnergyPerOp: 10,
		ValidateFailPct: 10, VASFailPct: 10, SpuriousPerMilOps: 4000, InvalidationsPerOp: 0.5}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("point = %+v\nwant    %+v", p, want)
	}
	if p := pointOf("idle", 1, phase{}); !reflect.DeepEqual(p, Point{Variant: "idle", Threads: 1}) {
		t.Fatalf("empty phase gave %+v", p)
	}
}

func TestWorkloadMixes(t *testing.T) {
	if workload.Update3535.InsertPct != 35 || workload.Update1515.DeletePct != 15 {
		t.Fatal("paper mixes drifted")
	}
}
