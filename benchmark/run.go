package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/workload"
)

// segment is one measured slice of a workload: a fixed number of operations
// on the warmed instance. Rates are reported as the median segment.
type segment struct {
	ops    uint64
	failed uint64
	host   time.Duration // host wall time
	cpu    time.Duration // process CPU time
	rate   float64       // ops per second in the workload's own clock
	p50us  float64       // per-op latency in the workload's own clock
	p99us  float64
}

// instance is a workload set up and warm: it runs measured segments, then
// checks its invariants and releases everything it started.
type instance interface {
	segment(i int, traced bool) segment
	finish() error
	// layers fills the per-layer metrics of a traced run.
	layers(r *report, run *tracedRun)
}

// workloadDef is one row of BENCHMARK.json's workloads list plus how to
// build it.
type workloadDef struct {
	name   string
	clock  string // the clock ops_per_s and op_p*_us are read on
	why    string
	setups int // set-ups timed per run; setup_s is their median
	setup  func(seed int64, scale int, tc *tracer) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "kv-pipelined", clock: "host", setups: 3,
		why: "Served KV, GET 80/PUT 10/DEL 10 uniform over 65536 keys, 2 conns x depth 32: stm+txmap+vtags do ~90% of the work, so engine gains show and wire gains barely.",
		setup: func(seed int64, scale int, tc *tracer) (instance, error) {
			return setupServed(servedSpec{engine: kvEngine(), dist: workload.DistUniform, mix: kvMix, depth: 32, segReqs: 400_000}, seed, scale, tc)
		},
	},
	{
		name: "kv-rtt", clock: "host", setups: 3,
		why: "Same server, data and mix at depth 1: socket, codec and worker hand-off are ~70% of the round trip, so serve-layer gains show and engine gains barely; the mirror of kv-pipelined.",
		setup: func(seed int64, scale int, tc *tracer) (instance, error) {
			return setupServed(servedSpec{engine: kvEngine(), dist: workload.DistUniform, mix: kvMix, depth: 1, segReqs: 100_000}, seed, scale, tc)
		},
	},
	{
		name: "mixed-write", clock: "host", setups: 3,
		why: "Served, Zipfian 0.99, half writes, set plane, reservation transactions, immediate reclamation on every unlink: a read-path gain paid for in aborts, write cost or footprint shows.",
		setup: func(seed int64, scale int, tc *tracer) (instance, error) {
			return setupServed(servedSpec{engine: mixedEngine(), dist: workload.DistZipfian, mix: mixedMix, depth: 32, segReqs: 250_000}, seed, scale, tc)
		},
	},
	{
		name: "sim-tree", clock: "simulated", setups: 3,
		why:   "Paper Fig. 6: (a,b)-tree llxscx vs hoh-tag, 35/35, 8 simulated cores; machine+cachemodel+abtree+llxscx do all the work and serve/vtags none: the no-change control for served-path work.",
		setup: setupSimTree,
	},
	{
		name: "sim-vacation", clock: "simulated", setups: 1,
		why:   "Paper Fig. 8: STAMP Vacation, NOrec vs tagged NOrec on the simulated machine; the same stm/txmap/vacation code as mixed-write, priced in simulated cycles instead of host ns.",
		setup: setupSimVacation,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is what one run of one workload produced.
type result struct {
	attempted, failed uint64
	report            *report
	segments          []segment
	err               error // a failed invariant or transport error
}

func (r *result) correct() bool { return r.err == nil && r.failed == 0 }

// liveHeapMiB is HeapAlloc after a forced collection: what the warmed
// instance keeps alive at quiescence.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setUp builds the workload w.setups times, keeps the last instance and
// returns the median set-up time: start of workload to first measured op.
func setUp(w *workloadDef, seed int64, scale int, tc *tracer) (instance, float64, error) {
	// A previous workload's garbage must not be collected on this one's time.
	runtime.GC()
	var times []float64
	var inst instance
	for k := 0; k < w.setups; k++ {
		if inst != nil {
			if err := inst.finish(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, scale, tc); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// measure runs segments on inst until seconds of host time have passed (at
// least one), tracing the odd ones when alternate is set.
func measure(inst instance, seconds float64, alternate bool) (plain, traced []segment) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if alternate && i%2 == 1 {
			traced = append(traced, inst.segment(i, true))
		} else {
			plain = append(plain, inst.segment(i, false))
		}
		if !time.Now().Before(deadline) && (!alternate || len(traced) > 0) {
			return plain, traced
		}
	}
}

func column(segs []segment, f func(segment) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

func segRate(s segment) float64 { return s.rate }
func segP50(s segment) float64  { return s.p50us }
func segP99(s segment) float64  { return s.p99us }
func segCPU(s segment) float64  { return float64(s.cpu.Microseconds()) / float64(s.ops) }

func tally(res *result, segs []segment) {
	for _, s := range segs {
		res.attempted += s.ops
		res.failed += s.failed
	}
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
func runEndToEnd(w *workloadDef, seed int64, seconds float64, scale int, out io.Writer) *result {
	res := &result{report: newReport(endToEnd)}
	inst, setupS, err := setUp(w, seed, scale, nil)
	if err != nil {
		res.err = fmt.Errorf("set-up: %w", err)
		res.attempted = 1
		return res
	}
	heap := liveHeapMiB()
	res.segments, _ = measure(inst, seconds, false)
	tally(res, res.segments)
	if err := inst.finish(); err != nil {
		res.err = err
		res.failed = res.attempted // a broken invariant taints every op
	}
	r := res.report
	r.set("setup_s", setupS)
	r.set("ops_per_s", median(column(res.segments, segRate)))
	r.set("op_p50_us", median(column(res.segments, segP50)))
	r.set("op_p99_us", median(column(res.segments, segP99)))
	r.set("cpu_us_per_op", median(column(res.segments, segCPU)))
	r.set("live_heap_mb", heap)
	fmt.Fprintf(out, "%s: %d measured segments, %d ops, %d failed; ops_per_s and op_p*_us on the %s clock, the rest host time\n",
		w.name, len(res.segments), res.attempted, res.failed, w.clock)
	fmt.Fprintf(out, "  segment spread (Q3-Q1)/median: ops_per_s %.4f  op_p50_us %.4f  op_p99_us %.4f  cpu_us_per_op %.4f\n",
		quartileSpread(column(res.segments, segRate)), quartileSpread(column(res.segments, segP50)),
		quartileSpread(column(res.segments, segP99)), quartileSpread(column(res.segments, segCPU)))
	r.print(out)
	return res
}

// tracedRun is what the traced pass hands to an instance's layers.
type tracedRun struct {
	scale  int
	tc     *tracer
	plain  []segment
	traced []segment
	extra  []segment // segments layers ran itself; tallied, not compared
	out    io.Writer
}

// runTraced is the traced run: the same workload with client or cell spans
// on alternate segments, then the layer ladder. Its numbers are per-layer
// only; end-to-end numbers always come from runEndToEnd.
func runTraced(w *workloadDef, seed int64, seconds float64, scale int, traceFile string, out io.Writer) *result {
	res := &result{report: newReport(perLayer)}
	tc := newTracer()
	inst, _, err := setUp(&workloadDef{setups: 1, setup: w.setup}, seed, scale, tc)
	if err != nil {
		res.err = fmt.Errorf("set-up: %w", err)
		res.attempted = 1
		return res
	}
	run := &tracedRun{scale: scale, tc: tc, out: out}
	run.plain, run.traced = measure(inst, seconds, true)
	r := res.report
	inst.layers(r, run)
	res.segments = append(append(append(res.segments, run.plain...), run.traced...), run.extra...)
	tally(res, res.segments)
	if err := inst.finish(); err != nil {
		res.err = err
		res.failed = res.attempted
	}
	plain, traced := median(column(run.plain, hostRate)), median(column(run.traced, hostRate))
	r.set("trace.overhead_share", 1-traced/plain)
	r.set("fail_share", float64(res.failed)/float64(res.attempted))
	fmt.Fprintf(out, "%s traced: %d plain + %d traced segments, %d ops, %d failed; sim.* and machine.* are simulated time or counts, *_ns/*_s host time\n",
		w.name, len(run.plain), len(run.traced), res.attempted, res.failed)
	tc.printSelfTimes(out)
	r.print(out)
	if traceFile != "" {
		if err := tc.writeFile(traceFile); err != nil && res.err == nil {
			res.err = fmt.Errorf("writing trace: %w", err)
		}
	}
	return res
}

// hostRate is a segment's ops per host second, whatever the workload's clock.
func hostRate(s segment) float64 { return float64(s.ops) / s.host.Seconds() }
