// Package harness runs the paper's experiments (Section 6) on the machine
// simulator and reports the series each figure plots: throughput, L1 cache
// miss rate and energy versus thread count, for every data-structure
// variant, plus tag-specific telemetry (validation failures, spurious
// evictions).
package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/reclaim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SetVariant names one data-structure implementation under test.
type SetVariant struct {
	Name  string
	Build func(mem core.Memory) intset.Set
	// BuildReclaimed, when non-nil, is used instead of Build and returns
	// the reclamation pool wired into the structure, so the harness can
	// attach pool telemetry and report footprint/reclamation metrics.
	BuildReclaimed func(mem core.Memory) (intset.Set, *reclaim.Pool)
}

// SetExperiment describes one figure's set-structure experiment.
type SetExperiment struct {
	Name    string // experiment id, e.g. "fig2"
	Title   string
	Figure  string // paper figure it reproduces
	Threads []int
	Trials  int

	KeyRange     uint64
	OpsPerThread int
	Mix          workload.Mix
	Seed         int64

	Variants []SetVariant
	// Config produces the machine configuration for a core count; nil
	// means machine.DefaultConfig with a memory size scaled to the run.
	Config func(cores int) machine.Config
	// MemBytes overrides the simulated memory size when Config is nil.
	MemBytes int

	// Workers bounds the host goroutines that experiment cells (variant ×
	// thread count × trial simulations) fan out over; 0 or 1 runs them
	// serially. Results are identical for every setting (DESIGN.md,
	// "Experiment harness").
	Workers int

	// Telemetry enables the per-op observability layer for the measured
	// phase of every cell: latency/retry histograms (reported as
	// p50/p99/max and retries per op) and the interval sampler's
	// time-series windows. Recording is allocation-free and preserves the
	// worker-count determinism of Run.
	Telemetry bool
	// SampleEvery is the sampler window width in simulated cycles; 0
	// means DefaultSampleEvery when Telemetry is on.
	SampleEvery uint64
}

// DefaultSampleEvery is the default sampler window width in simulated
// cycles. Small relative to any measured phase (even quick-scale cells run
// hundreds of thousands of cycles), so every cell reports at least two
// windows; long runs fold to coarser windows automatically.
const DefaultSampleEvery = 4096

// samplerWindowBudget bounds per-core sampler memory; runs longer than
// budget×interval fold pairwise to coarser windows.
const samplerWindowBudget = 64

// Point is one measured datum: a (variant, thread count) cell averaged
// over trials.
type Point struct {
	Variant string
	Threads int

	// ThroughputMops is completed operations per simulated microsecond
	// (i.e. millions of ops per simulated second at the configured clock).
	ThroughputMops float64
	// MissRatePct is the percentage of cache accesses missing L1.
	MissRatePct float64
	// EnergyPerOp is model energy units consumed per completed operation.
	EnergyPerOp float64

	// Tag telemetry.
	ValidateFailPct    float64 // failed validations / validations
	VASFailPct         float64 // failed VAS+IAS / attempts
	SpuriousPerMilOps  float64 // spurious tag evictions per million ops
	InvalidationsPerOp float64

	// Per-op telemetry, populated when the experiment runs with
	// Telemetry enabled (zero/absent otherwise). Latencies are in
	// simulated cycles; quantiles come from power-of-two-bucket
	// histograms, so they are exact to within one bucket.
	OpLatP50     float64 `json:"op_lat_p50,omitempty"`
	OpLatP99     float64 `json:"op_lat_p99,omitempty"`
	OpLatMax     uint64  `json:"op_lat_max,omitempty"`
	RetriesPerOp float64 `json:"retries_per_op,omitempty"`
	// Windows is the sampled time series of the cell's first trial
	// (per-trial series don't average meaningfully; the first trial is
	// deterministic for any worker count).
	Windows []telemetry.Window `json:"windows,omitempty"`

	// Reclamation metrics, populated only for variants built with
	// BuildReclaimed. Retire-to-free latencies (simulated cycles, from the
	// pool's histogram) additionally need Telemetry enabled.
	RetireFreeP50 float64 `json:"retire_free_p50,omitempty"`
	RetireFreeP99 float64 `json:"retire_free_p99,omitempty"`
	PeakLiveLines int64   `json:"peak_live_lines,omitempty"`
	FreelistLines int64   `json:"freelist_lines,omitempty"`
}

func (e *SetExperiment) config(cores int) machine.Config {
	if e.Config != nil {
		return e.Config(cores)
	}
	cfg := machine.DefaultConfig(cores)
	if e.MemBytes > 0 {
		cfg.MemBytes = e.MemBytes
	} else {
		cfg.MemBytes = 256 << 20
	}
	return cfg
}

// Run executes the experiment and returns one Point per (variant, thread
// count), ordered by variant then threads, each the mean of its trials.
func (e *SetExperiment) Run() []Point {
	return grid(e.Workers, len(e.Variants), len(e.Threads), e.Trials, func(v, n, trial int) Point {
		return e.runOne(&e.Variants[v], e.Threads[n], e.Seed+int64(trial)*104729)
	}, foldSetTrials)
}

// foldSetTrials is meanOfTrials, except that the latency maximum and the
// peak footprint are maxima and the free-list size is an integer mean.
func foldSetTrials(trials []Point) Point {
	p := meanOfTrials(trials)
	var free int64
	for _, t := range trials {
		p.OpLatMax = max(p.OpLatMax, t.OpLatMax)
		p.PeakLiveLines = max(p.PeakLiveLines, t.PeakLiveLines)
		free += t.FreelistLines
	}
	p.FreelistLines = free / int64(len(trials))
	return p
}

// prefilled builds one cell's machine and structure and prefills it; the
// returned workload config drives the cell's timed phase.
func (e *SetExperiment) prefilled(v *SetVariant, threads int, seed int64) (*machine.Machine, intset.Set, *reclaim.Pool, workload.Config) {
	m := machine.New(e.config(threads))
	var s intset.Set
	var pool *reclaim.Pool
	if v.BuildReclaimed != nil {
		s, pool = v.BuildReclaimed(m)
	} else {
		s = v.Build(m)
	}
	cfg := workload.Config{
		Threads:      threads,
		KeyRange:     e.KeyRange,
		PrefillSize:  int(e.KeyRange / 2),
		OpsPerThread: e.OpsPerThread,
		Mix:          e.Mix,
		Seed:         seed,
	}
	workload.Prefill(m, s, cfg)
	return m, s, pool, cfg
}

func (e *SetExperiment) runOne(v *SetVariant, threads int, seed int64) Point {
	m, s, pool, cfg := e.prefilled(v, threads, seed)
	// Telemetry covers only the timed phase: attach after prefill (the
	// machine is quiescent here).
	var set *telemetry.Set
	var sampler *telemetry.Sampler
	if e.Telemetry {
		set = telemetry.NewSet(threads)
		m.SetTelemetry(set)
		every := e.SampleEvery
		if every == 0 {
			every = DefaultSampleEvery
		}
		sampler = telemetry.NewSampler(threads, every, samplerWindowBudget)
		cfg.Telemetry = set
		cfg.Sampler = sampler
		if pool != nil {
			pool.SetTelemetry(set)
		}
	}
	ph := timed(m, func() uint64 { return workload.Run(m, s, cfg).Ops })
	p := pointOf(v.Name, threads, ph)
	if e.Telemetry {
		set.Flush()
		agg := set.Merge()
		p.OpLatP50 = agg.OpLatency.Quantile(0.5)
		p.OpLatP99 = agg.OpLatency.Quantile(0.99)
		p.OpLatMax = agg.OpLatency.Max()
		if n := agg.OpRetries.Count(); n > 0 {
			p.RetriesPerOp = float64(agg.OpRetries.Sum()) / float64(n)
		}
		p.Windows = sampler.Windows()
		if pool != nil && agg.RetireToFree.Count() > 0 {
			p.RetireFreeP50 = agg.RetireToFree.Quantile(0.5)
			p.RetireFreeP99 = agg.RetireToFree.Quantile(0.99)
		}
	}
	if pool != nil {
		st := pool.Stats()
		p.PeakLiveLines = st.HighWaterLines
		p.FreelistLines = st.FreeLines
	}
	return p
}

// pointOf reduces a set cell's timed phase to its Point.
func pointOf(variant string, threads int, ph phase) Point {
	return Point{
		Variant:            variant,
		Threads:            threads,
		ThroughputMops:     ph.rate(1e6),
		MissRatePct:        ph.missPct(),
		EnergyPerOp:        ph.perOp(ph.Energy),
		ValidateFailPct:    ph.validateFailPct(),
		VASFailPct:         ph.vasFailPct(),
		SpuriousPerMilOps:  ph.perOp(1e6 * float64(ph.SpuriousEvictions)),
		InvalidationsPerOp: ph.perOp(float64(ph.InvalidationsSent)),
	}
}

// TraceCell runs a single (variant, thread count) cell with the Perfetto
// collector attached — backend coherence/tag events plus per-op spans —
// and writes Chrome trace-event JSON to w. The prefill phase is not
// traced. Tracing allocates; use it for inspection, not measurement.
func (e *SetExperiment) TraceCell(variant string, threads int, w io.Writer) error {
	i := slices.IndexFunc(e.Variants, func(v SetVariant) bool { return v.Name == variant })
	if i < 0 {
		return fmt.Errorf("harness: experiment %s has no variant %q", e.Name, variant)
	}
	m, s, _, cfg := e.prefilled(&e.Variants[i], threads, e.Seed)
	col := telemetry.NewTraceCollector(threads)
	m.SetTracer(col)
	cfg.Trace = col
	workload.Run(m, s, cfg)
	m.SetTracer(nil)
	return col.WriteJSON(w)
}

// Print writes the points as the figure's table: one block per metric,
// thread counts as columns, variants as rows. Per-op latency rows appear
// when some point carries telemetry, reclamation rows when some variant
// ran with a pool attached.
func (e *SetExperiment) Print(w io.Writer, points []Point) {
	t := table[Point]{
		axis:  "threads",
		width: 14,
		at:    func(p Point) (string, int) { return p.Variant, p.Threads },
		metrics: []metric[Point]{
			{name: "throughput (Mops/s)", get: func(p Point) float64 { return p.ThroughputMops }},
			{name: "L1 miss rate (%)", get: func(p Point) float64 { return p.MissRatePct }},
			{name: "energy/op (units)", get: func(p Point) float64 { return p.EnergyPerOp }},
			{name: "validate fails (%)", get: func(p Point) float64 { return p.ValidateFailPct }},
			{name: "VAS/IAS fails (%)", get: func(p Point) float64 { return p.VASFailPct }},
			{name: "invalidations/op", get: func(p Point) float64 { return p.InvalidationsPerOp }},
		},
	}
	if slices.ContainsFunc(points, func(p Point) bool { return p.OpLatP99 > 0 }) {
		t.metrics = append(t.metrics,
			metric[Point]{name: "op latency p50 (cyc)", get: func(p Point) float64 { return p.OpLatP50 }},
			metric[Point]{name: "op latency p99 (cyc)", get: func(p Point) float64 { return p.OpLatP99 }},
			metric[Point]{name: "retries/op", get: func(p Point) float64 { return p.RetriesPerOp }})
	}
	if slices.ContainsFunc(points, func(p Point) bool { return p.PeakLiveLines > 0 }) {
		t.metrics = append(t.metrics,
			metric[Point]{name: "retire-free p50 (cyc)", get: func(p Point) float64 { return p.RetireFreeP50 }},
			metric[Point]{name: "retire-free p99 (cyc)", get: func(p Point) float64 { return p.RetireFreeP99 }},
			metric[Point]{name: "peak live lines", get: func(p Point) float64 { return float64(p.PeakLiveLines) }},
			metric[Point]{name: "free-list lines", get: func(p Point) float64 { return float64(p.FreelistLines) }})
	}
	t.print(w, e.Title, points)
}

// Speedup returns variant a's throughput relative to variant b at the
// given thread count (e.g. 1.4 = 40% faster), or 0 if missing data.
func Speedup(points []Point, a, b string, threads int) float64 {
	var ta, tb float64
	for _, p := range points {
		if p.Threads != threads {
			continue
		}
		if p.Variant == a {
			ta = p.ThroughputMops
		}
		if p.Variant == b {
			tb = p.ThroughputMops
		}
	}
	if tb == 0 {
		return 0
	}
	return ta / tb
}
