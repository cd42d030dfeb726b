// Package harness runs the paper's experiments (Section 6) on the machine
// simulator and reports the series each figure plots: throughput, L1 cache
// miss rate and energy versus thread count, for every data-structure
// variant, plus tag-specific telemetry (validation failures, spurious
// evictions).
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"

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

	// Workers bounds the host-level worker pool that experiment cells
	// (variant × thread count × trial simulations) fan out over: 0 runs
	// serially, -1 uses one worker per host CPU, any other value is the
	// pool size. Results are identical for every setting (see parallel.go).
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
// count), ordered by variant then threads. Cells run on a pool of
// e.Workers host workers; the output is identical for any worker count.
func (e *SetExperiment) Run() []Point {
	trials := e.Trials
	if trials <= 0 {
		trials = 1
	}
	// Compute every (variant, threads, trial) cell into its slot, possibly
	// in parallel. Each cell owns a private Machine; no state is shared.
	nv, nt := len(e.Variants), len(e.Threads)
	raw := make([]Point, nv*nt*trials)
	forEachCell(resolveWorkers(e.Workers), len(raw), func(i int) {
		trial := i % trials
		n := e.Threads[i/trials%nt]
		v := e.Variants[i/(trials*nt)]
		raw[i] = e.runOne(v, n, e.Seed+int64(trial)*104729)
	})
	// Aggregate serially in the fixed cell order, so the non-associative
	// float averaging matches the serial path bit for bit.
	points := make([]Point, 0, nv*nt)
	for vi, v := range e.Variants {
		for ni, n := range e.Threads {
			acc := Point{Variant: v.Name, Threads: n}
			for trial := 0; trial < trials; trial++ {
				p := raw[(vi*nt+ni)*trials+trial]
				acc.ThroughputMops += p.ThroughputMops
				acc.MissRatePct += p.MissRatePct
				acc.EnergyPerOp += p.EnergyPerOp
				acc.ValidateFailPct += p.ValidateFailPct
				acc.VASFailPct += p.VASFailPct
				acc.SpuriousPerMilOps += p.SpuriousPerMilOps
				acc.InvalidationsPerOp += p.InvalidationsPerOp
				acc.OpLatP50 += p.OpLatP50
				acc.OpLatP99 += p.OpLatP99
				acc.RetriesPerOp += p.RetriesPerOp
				acc.RetireFreeP50 += p.RetireFreeP50
				acc.RetireFreeP99 += p.RetireFreeP99
				acc.FreelistLines += p.FreelistLines
				if p.OpLatMax > acc.OpLatMax {
					acc.OpLatMax = p.OpLatMax
				}
				if p.PeakLiveLines > acc.PeakLiveLines {
					acc.PeakLiveLines = p.PeakLiveLines
				}
				if trial == 0 {
					acc.Windows = p.Windows
				}
			}
			f := float64(trials)
			acc.ThroughputMops /= f
			acc.MissRatePct /= f
			acc.EnergyPerOp /= f
			acc.ValidateFailPct /= f
			acc.VASFailPct /= f
			acc.SpuriousPerMilOps /= f
			acc.InvalidationsPerOp /= f
			acc.OpLatP50 /= f
			acc.OpLatP99 /= f
			acc.RetriesPerOp /= f
			acc.RetireFreeP50 /= f
			acc.RetireFreeP99 /= f
			acc.FreelistLines /= int64(trials)
			points = append(points, acc)
		}
	}
	return points
}

// build constructs the variant's structure, preferring the reclamation-
// aware constructor when present.
func build(v *SetVariant, mem core.Memory) (intset.Set, *reclaim.Pool) {
	if v.BuildReclaimed != nil {
		return v.BuildReclaimed(mem)
	}
	return v.Build(mem), nil
}

func (e *SetExperiment) runOne(v SetVariant, threads int, seed int64) Point {
	m := machine.New(e.config(threads))
	s, pool := build(&v, m)
	cfg := workload.Config{
		Threads:      threads,
		KeyRange:     e.KeyRange,
		PrefillSize:  int(e.KeyRange / 2),
		OpsPerThread: e.OpsPerThread,
		Mix:          e.Mix,
		Seed:         seed,
	}
	workload.Prefill(m, s, cfg)
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
	settleHeap()
	// Measure only the timed phase: snapshot after prefill.
	before := m.Snapshot()
	counts := workload.Run(m, s, cfg)
	after := m.Snapshot()
	p := diffToPoint(v.Name, threads, before, after, counts.Ops, m.Config().ClockHz)
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

// settleHeap collects before a cell's timed phase, so the next GC is paced
// from this cell's own live heap rather than from wherever the previous
// cell left it. With one host CPU the simulated cores' interleaving is then
// a function of the seed alone unless the phase itself allocates past the
// collector's goal: a collection inside the phase reorders the run queue,
// and with it the simulated schedule.
func settleHeap() { runtime.GC() }

// TraceCell runs a single (variant, thread count) cell with the Perfetto
// collector attached — backend coherence/tag events plus per-op spans —
// and writes Chrome trace-event JSON to w. The prefill phase is not
// traced. Tracing allocates; use it for inspection, not measurement.
func (e *SetExperiment) TraceCell(variant string, threads int, w io.Writer) error {
	var v *SetVariant
	for i := range e.Variants {
		if e.Variants[i].Name == variant {
			v = &e.Variants[i]
		}
	}
	if v == nil {
		return fmt.Errorf("harness: experiment %s has no variant %q", e.Name, variant)
	}
	m := machine.New(e.config(threads))
	s, _ := build(v, m)
	cfg := workload.Config{
		Threads:      threads,
		KeyRange:     e.KeyRange,
		PrefillSize:  int(e.KeyRange / 2),
		OpsPerThread: e.OpsPerThread,
		Mix:          e.Mix,
		Seed:         e.Seed,
	}
	workload.Prefill(m, s, cfg)
	col := telemetry.NewTraceCollector(threads)
	m.SetTracer(col)
	cfg.Trace = col
	workload.Run(m, s, cfg)
	m.SetTracer(nil)
	return col.WriteJSON(w)
}

func diffToPoint(name string, threads int, before, after machine.Stats, ops uint64, clockHz float64) Point {
	cycles := after.MaxCycles - before.MaxCycles
	accesses := after.Accesses() - before.Accesses()
	misses := after.Misses() - before.Misses()
	energy := after.Energy - before.Energy
	validates := after.Validates - before.Validates
	vfails := after.ValidateFails - before.ValidateFails
	attempts := (after.VASAttempts + after.IASAttempts) - (before.VASAttempts + before.IASAttempts)
	afails := (after.VASFails + after.IASFails) - (before.VASFails + before.IASFails)
	spurious := after.SpuriousEvictions - before.SpuriousEvictions
	invs := after.InvalidationsSent - before.InvalidationsSent

	p := Point{Variant: name, Threads: threads}
	if cycles > 0 {
		simSeconds := float64(cycles) / clockHz
		p.ThroughputMops = float64(ops) / simSeconds / 1e6
	}
	if accesses > 0 {
		p.MissRatePct = 100 * float64(misses) / float64(accesses)
	}
	if ops > 0 {
		p.EnergyPerOp = energy / float64(ops)
		p.SpuriousPerMilOps = 1e6 * float64(spurious) / float64(ops)
		p.InvalidationsPerOp = float64(invs) / float64(ops)
	}
	if validates > 0 {
		p.ValidateFailPct = 100 * float64(vfails) / float64(validates)
	}
	if attempts > 0 {
		p.VASFailPct = 100 * float64(afails) / float64(attempts)
	}
	return p
}

// PrintTable writes the points as the figure's table: one block per
// metric, thread counts as columns, variants as rows.
func PrintTable(w io.Writer, title string, points []Point) {
	threads := uniqueThreads(points)
	variants := uniqueVariants(points)
	idx := map[string]map[int]Point{}
	for _, p := range points {
		if idx[p.Variant] == nil {
			idx[p.Variant] = map[int]Point{}
		}
		idx[p.Variant][p.Threads] = p
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	metrics := []struct {
		name string
		get  func(Point) float64
	}{
		{"throughput (Mops/s)", func(p Point) float64 { return p.ThroughputMops }},
		{"L1 miss rate (%)", func(p Point) float64 { return p.MissRatePct }},
		{"energy/op (units)", func(p Point) float64 { return p.EnergyPerOp }},
		{"validate fails (%)", func(p Point) float64 { return p.ValidateFailPct }},
		{"VAS/IAS fails (%)", func(p Point) float64 { return p.VASFailPct }},
		{"invalidations/op", func(p Point) float64 { return p.InvalidationsPerOp }},
	}
	// Per-op latency rows only when some point carries telemetry.
	for _, p := range points {
		if p.OpLatP99 > 0 {
			metrics = append(metrics,
				struct {
					name string
					get  func(Point) float64
				}{"op latency p50 (cyc)", func(p Point) float64 { return p.OpLatP50 }},
				struct {
					name string
					get  func(Point) float64
				}{"op latency p99 (cyc)", func(p Point) float64 { return p.OpLatP99 }},
				struct {
					name string
					get  func(Point) float64
				}{"retries/op", func(p Point) float64 { return p.RetriesPerOp }},
			)
			break
		}
	}
	// Reclamation rows only when some variant ran with a pool attached.
	for _, p := range points {
		if p.PeakLiveLines > 0 {
			metrics = append(metrics,
				struct {
					name string
					get  func(Point) float64
				}{"retire-free p50 (cyc)", func(p Point) float64 { return p.RetireFreeP50 }},
				struct {
					name string
					get  func(Point) float64
				}{"retire-free p99 (cyc)", func(p Point) float64 { return p.RetireFreeP99 }},
				struct {
					name string
					get  func(Point) float64
				}{"peak live lines", func(p Point) float64 { return float64(p.PeakLiveLines) }},
				struct {
					name string
					get  func(Point) float64
				}{"free-list lines", func(p Point) float64 { return float64(p.FreelistLines) }},
			)
			break
		}
	}
	for _, met := range metrics {
		fmt.Fprintf(w, "-- %s --\n", met.name)
		fmt.Fprintf(w, "%-14s", "threads")
		for _, t := range threads {
			fmt.Fprintf(w, "%10d", t)
		}
		fmt.Fprintln(w)
		for _, v := range variants {
			fmt.Fprintf(w, "%-14s", v)
			for _, t := range threads {
				fmt.Fprintf(w, "%10.3f", met.get(idx[v][t]))
			}
			fmt.Fprintln(w)
		}
	}
}

func uniqueThreads(points []Point) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range points {
		if !seen[p.Threads] {
			seen[p.Threads] = true
			out = append(out, p.Threads)
		}
	}
	sort.Ints(out)
	return out
}

func uniqueVariants(points []Point) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range points {
		if !seen[p.Variant] {
			seen[p.Variant] = true
			out = append(out, p.Variant)
		}
	}
	return out
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
